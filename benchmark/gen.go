package main

import "math"

// The benchmark owns its random numbers, key distribution and op streams so
// that a refactor of internal/bench or internal/stats cannot move a number.

// rng is splitmix64: tiny, seedable, and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// intn returns a uniform integer in [0, n) by multiply-shift.
func (r *rng) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is the splitmix64 finalizer, used as a stateless hash.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// zipfian draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta (Gray et
// al.'s generator, as in YCSB); scrambled() hashes the rank so the popular
// keys are spread over the key space and therefore over shards.
type zipfian struct {
	n                 int
	theta             float64
	alpha, zetan, eta float64
}

func newZipfian(n int, theta float64) *zipfian {
	z := &zipfian{n: n, theta: theta}
	zeta2 := 1 + math.Pow(0.5, theta)
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipfian) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

func (z *zipfian) scrambled(r *rng) int {
	return int(mix64(uint64(z.rank(r))) % uint64(z.n))
}

// maxBurst is the largest number of ops one step issues together.
const maxBurst = 8

// op is one generated operation: a read or a write of item id, where an item
// is a line, a 4 KB block or a key depending on the workload.
type op struct {
	write bool
	id    uint32
}

// step is what an issuer hands the program under test in one call (or one
// batch): 1 op, or a burst of maxBurst.
type step struct {
	n   int
	ops [maxBurst]op
}

// generator produces one issuer's op stream. The program under test sees
// only these ops; -seed selects the stream.
type generator struct {
	spec  *spec
	r     rng
	zipf  *zipfian
	seqAt uint32 // next sequential item (rmc_bulk)
}

func newGenerator(s *spec, seed uint64, issuer int) *generator {
	g := &generator{spec: s, r: rng{s: mix64(seed) ^ mix64(uint64(issuer)+1)}}
	if s.zipfTheta > 0 {
		g.zipf = newZipfian(s.items, s.zipfTheta)
	}
	return g
}

// next fills st with the issuer's next step.
func (g *generator) next(st *step) {
	s := g.spec
	switch {
	case s.sequential:
		// One batch of maxBurst consecutive blocks, each a write with
		// probability writeShare.
		st.n = maxBurst
		for i := range st.ops {
			st.ops[i] = op{write: g.r.float() < s.writeShare, id: g.seqAt}
			if g.seqAt++; g.seqAt == uint32(s.items) {
				g.seqAt = 0
			}
		}
	case s.readBurst > 1:
		// writeShare is the share of OPS that are writes; reads come
		// readBurst at a time, so the share of STEPS that are writes is
		// higher.
		w := s.writeShare * float64(s.readBurst)
		if g.r.float() < w/(w+1-s.writeShare) {
			st.n = 1
			st.ops[0] = op{write: true, id: g.item()}
			return
		}
		st.n = s.readBurst
		for i := 0; i < st.n; i++ {
			st.ops[i] = op{id: g.item()}
		}
	default:
		st.n = 1
		st.ops[0] = op{write: g.r.float() < s.writeShare, id: g.item()}
	}
}

func (g *generator) item() uint32 {
	if g.zipf != nil {
		return uint32(g.zipf.scrambled(&g.r))
	}
	return uint32(g.r.intn(g.spec.items))
}
