package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// streamHash is an FNV-1a digest of the first n ops of an issuer's stream;
// the tests use it to pin "same seed, same inputs".
func streamHash(s *spec, seed uint64, issuer, n int) uint64 {
	g := newGenerator(s, seed, issuer)
	h := uint64(0xcbf29ce484222325)
	var st step
	for done := 0; done < n; {
		g.next(&st)
		for _, o := range st.ops[:st.n] {
			v := uint64(o.id) << 1
			if o.write {
				v |= 1
			}
			for b := 0; b < 5; b++ {
				h = (h ^ (v >> (8 * b) & 0xff)) * 0x100000001b3
			}
			done++
		}
	}
	return h
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, sp := range specs {
		a := streamHash(sp, 1, 0, 10000)
		if b := streamHash(sp, 1, 0, 10000); a != b {
			t.Errorf("%s: same seed gave streams %x and %x", sp.name, a, b)
		}
		if b := streamHash(sp, 2, 0, 10000); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", sp.name)
		}
		if b := streamHash(sp, 1, 1, 10000); a == b {
			t.Errorf("%s: issuers 0 and 1 got the same stream", sp.name)
		}
	}
}

func TestWriteShareOfOps(t *testing.T) {
	for _, sp := range specs {
		g := newGenerator(sp, 7, 0)
		var st step
		var ops, writes int
		for ops < 200000 {
			g.next(&st)
			for _, o := range st.ops[:st.n] {
				ops++
				if o.write {
					writes++
				}
				if int(o.id) >= sp.items {
					t.Fatalf("%s: item %d outside [0,%d)", sp.name, o.id, sp.items)
				}
			}
		}
		if got := float64(writes) / float64(ops); math.Abs(got-sp.writeShare) > 0.01 {
			t.Errorf("%s: %.3f of ops are writes, want %.2f", sp.name, got, sp.writeShare)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	in := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(in), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 15000, 1 << 20, 123456789, 1 << 39} {
		lo, hi := histBounds(histBucket(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d filed under [%v, %v)", v, lo, hi)
		}
		if lo >= 128 && (hi-lo)/lo > 1.0/histSub {
			t.Errorf("bucket [%v, %v) of %d is wider than 1/%d of its value", lo, hi, v, histSub)
		}
	}
}

func TestHistPercentiles(t *testing.T) {
	// 1..100 ns, one sample each, exact buckets: the median is sample 50.
	var h hist
	for v := int64(1); v <= 100; v++ {
		h.add(v, 1)
	}
	if got := h.percentile(50); got < 50 || got > 51 {
		t.Errorf("p50 of 1..100 = %v, want 50..51", got)
	}
	if got := h.percentile(99); got < 99 || got > 100 {
		t.Errorf("p99 of 1..100 = %v, want 99..100", got)
	}

	// 985 samples at 10 µs and 15 at 1 ms: p50 and p98 sit in the fast
	// mode, p99 in the slow one, each within a bucket (0.8 %) of the value.
	var two hist
	two.add(10_000, 985)
	two.add(1_000_000, 15)
	for _, c := range []struct{ p, want float64 }{{50, 10_000}, {98, 10_000}, {99, 1_000_000}} {
		if got := two.percentile(c.p); math.Abs(got-c.want)/c.want > 1.0/histSub {
			t.Errorf("p%v = %v, want %v within 1/%d", c.p, got, c.want, histSub)
		}
	}

	// A burst counts as that many samples, and merging adds up.
	var a, b hist
	a.add(2000, 8)
	b.add(4000, 24)
	a.merge(&b)
	if a.n != 32 {
		t.Errorf("merged count = %d, want 32", a.n)
	}
	if got := a.percentile(50); math.Abs(got-4000)/4000 > 1.0/histSub {
		t.Errorf("p50 of 8×2µs + 24×4µs = %v, want ≈4000", got)
	}
	var empty hist
	if got := empty.percentile(50); got != 0 {
		t.Errorf("percentile of an empty histogram = %v, want 0", got)
	}
}

func TestZipfianTopMass(t *testing.T) {
	const n, draws = kvsKeys, 200000
	z := newZipfian(n, 0.99)
	r := rng{s: 42}
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.rank(&r)
		if k < 0 || k >= n {
			t.Fatalf("rank %d outside [0,%d)", k, n)
		}
		counts[k]++
	}
	// zeta(4000, 0.99) ≈ 9.2: rank 0 draws ≈ 11 %, the top tenth of the
	// ranks ≈ 73 %.
	if top := float64(counts[0]) / draws; top < 0.09 || top > 0.13 {
		t.Errorf("rank 0 drew %.3f of the mass, want ≈0.11", top)
	}
	head := 0
	for _, c := range counts[:n/10] {
		head += c
	}
	if share := float64(head) / draws; share < 0.65 || share > 0.80 {
		t.Errorf("top tenth of ranks drew %.3f of the mass, want ≈0.73", share)
	}
	// Scrambling keeps the mass but moves it off the low ids.
	scr := make([]int, n)
	for i := 0; i < draws; i++ {
		scr[z.scrambled(&r)]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(scr)))
	if top := float64(scr[0]) / draws; top < 0.09 || top > 0.13 {
		t.Errorf("hottest scrambled key drew %.3f of the mass, want ≈0.11", top)
	}
}

func TestValuesVerify(t *testing.T) {
	is := &kvsIssuer{me: 0, gens: make([]uint32, 4), want: make([]byte, kvsValue)}
	v := make([]byte, kvsValue)
	kvsFill(v, 2, 3)
	is.gens[2] = 3
	if !is.valid(v, 2) {
		t.Error("the value last written for an owned key does not verify")
	}
	if is.valid(v, 3) {
		t.Error("a value verifies for another key")
	}
	is.gens[2] = 4
	if is.valid(v, 2) {
		t.Error("a stale generation of an owned key verifies")
	}
	kvsFill(v, 1, 9) // key 1 belongs to issuer 1: any written generation is fine
	if !is.valid(v, 1) {
		t.Error("a valid value of the other issuer's key does not verify")
	}
	v[40] ^= 1
	if is.valid(v, 1) {
		t.Error("a corrupted value verifies")
	}

	a, b := make([]byte, blockBytes), make([]byte, blockBytes)
	fillItem(a, 1, 0, 5, 0)
	fillItem(b, 1, 0, 5, 1)
	if string(a) == string(b) {
		t.Error("generations 0 and 1 of a block are identical")
	}
	if string(a[:lineBytes]) == string(a[lineBytes:2*lineBytes]) {
		t.Error("two lines of a block are identical")
	}
}

// TestManifestMatchesBinary runs every workload for one 50 ms window and
// checks that the names in BENCHMARK.json are well-formed and are exactly
// the metrics the binary emits: end-to-end untraced, per-layer traced.
func TestManifestMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(man.Workloads) != len(specs) {
		t.Fatalf("manifest lists %d workloads, binary has %d", len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in the manifest, %q in the binary", i, w.Name, specs[i].name)
		}
		if w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("%s: manifest and binary disagree on why, or it exceeds 200 characters", w.Name)
		}
	}
	want := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			if !name.MatchString(e.Name) || !unit.MatchString(e.Unit) {
				t.Errorf("metric %q unit %q is outside the contract's alphabet", e.Name, e.Unit)
			}
			if _, dup := m[e.Name]; dup {
				t.Errorf("metric %q listed twice", e.Name)
			}
			m[e.Name] = e.Unit
		}
		return m
	}
	check := func(t *testing.T, res *result, want map[string]string) {
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		for n, u := range want {
			if m, ok := res.Metrics[n]; !ok {
				t.Errorf("%s is in the manifest but not emitted", n)
			} else if m.Unit != u {
				t.Errorf("%s has unit %q in the manifest, %q emitted", n, u, m.Unit)
			}
		}
		for n := range res.Metrics {
			if _, ok := want[n]; !ok {
				t.Errorf("%s is emitted but not in the manifest", n)
			}
		}
	}
	dry := options{seed: 1, windows: 1, window: 50 * time.Millisecond, out: t.TempDir(), setups: 1, rungDiv: 200}
	endToEnd, perLayer := want(man.EndToEnd), want(man.PerLayer)
	for _, sp := range specs {
		o := dry
		o.workload = sp.name
		t.Run(sp.name, func(t *testing.T) {
			res, err := run(o)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd)
		})
	}
	// The per-layer names are the same on every workload; one traced run
	// (two windows: one plain, one traced) covers them.
	t.Run("traced", func(t *testing.T) {
		o := dry
		o.workload, o.trace, o.windows = "rmc_small", true, 2
		res, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, perLayer)
		if _, err := os.Stat(o.out + "/trace-rmc_small.json"); err != nil {
			t.Error(err)
		}
	})
}
