package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a fixed log-bucket latency histogram over nanoseconds: values
// below 2*histSub are exact, above that each power of two is split into
// histSub buckets, so a bucket is at most 1/64 of its value wide (≤ 0.8 %
// from its midpoint). It is preallocated and add never allocates.
const (
	histSub    = 64
	histSubLog = 6
	histMaxExp = 34 // values are clamped below 2^(histSubLog+1+histMaxExp) ns ≈ 36 min
	histSize   = (histMaxExp + 2) * histSub
)

type hist struct {
	n      uint64
	counts [histSize]uint32
}

func histBucket(ns uint64) int {
	if ns < 2*histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - (histSubLog + 1)
	if e > histMaxExp {
		return histSize - 1
	}
	return e*histSub + int(ns>>uint(e))
}

// histBounds returns the half-open value range [lo, hi) of bucket b.
func histBounds(b int) (lo, hi float64) {
	if b < 2*histSub {
		return float64(b), float64(b + 1)
	}
	e := b/histSub - 1
	m := uint64(b - e*histSub)
	return float64(m << uint(e)), float64((m + 1) << uint(e))
}

// add records k samples of value ns.
func (h *hist) add(ns int64, k int) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))] += uint32(k)
	h.n += uint64(k)
}

// percentile returns the p-th percentile (0 < p ≤ 100) in nanoseconds,
// interpolating linearly inside the bucket that holds the rank; 0 for an
// empty histogram.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := histBounds(histSize - 1)
	return lo
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// median returns the median of vs (mean of the middle two for an even
// count); NaN for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if m := len(s) / 2; len(s)%2 == 1 {
		return s[m]
	} else {
		return (s[m-1] + s[m]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile of vs
// as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the "exclusive" method) — the
// spread the acceptance check of this benchmark is defined on.
func quartileSpread(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}

// cv is the coefficient of variation (population standard deviation over
// mean) of vs.
func cv(vs []float64) float64 {
	var sum, sq float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	for _, v := range vs {
		sq += (v - mean) * (v - mean)
	}
	return math.Sqrt(sq/float64(len(vs))) / mean
}
