package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// winStats is what one issuer saw complete inside one timed window.
type winStats struct {
	ops    uint64 // completed and verified
	failed uint64 // errored or failed verification
	reads  hist
	writes hist
}

func (w *winStats) merge(o *winStats) {
	w.ops += o.ops
	w.failed += o.failed
	w.reads.merge(&o.reads)
	w.writes.merge(&o.writes)
}

// quietWindows returns the quarter of ws (at least one) that completed the
// most ops. On a shared 2-vCPU box a spinning integer loop's speed swings
// ±20 % from second to second, always downwards from a steady peak; the
// windows the host left alone are the ones that say something about the
// program. README.md has the measurements behind this choice.
func quietWindows(ws []*winStats) []*winStats {
	s := append([]*winStats(nil), ws...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].ops > s[j].ops })
	return s[:(len(s)+3)/4]
}

// quietRate is the median op count of the quiet windows of ws.
func quietRate(ws []*winStats) float64 {
	q := quietWindows(ws)
	n := make([]float64, len(q))
	for i, w := range q {
		n[i] = float64(w.ops)
	}
	return median(n)
}

// traceEvery is the span sampling rate: 1 step in traceEvery, in the traced
// windows of a traced pass.
const traceEvery = 64

// span is one timed call the benchmark made into a layer. Spans of one step
// share Op; Parent is the index of the enclosing span in the same issuer's
// list, -1 for a step's root span.
type span struct {
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder belongs to one issuer: it files each completed op under the
// window its completion time falls in and, in a traced pass, keeps the
// sampled spans in memory until the run ends.
type recorder struct {
	start  time.Time
	window time.Duration
	wins   []winStats
	done   bool // an op completed after the last window: the issuer stops

	trace    bool // traced pass: odd windows record spans, even ones do not
	inTraced bool // the last completion fell in a traced window
	steps    uint64
	spans    []span
	dropped  uint64
	root     int // index of the current step's root span
}

// maxSpans bounds a recorder's span memory; later spans are counted, not kept.
const maxSpans = 1 << 16

func newRecorder(start time.Time, window time.Duration, windows int, trace bool) *recorder {
	r := &recorder{start: start, window: window, wins: make([]winStats, windows), trace: trace}
	if trace {
		r.spans = make([]span, 0, maxSpans)
	}
	return r
}

// record files k ops (one burst) that started at t0 and completed at t1, bad
// of which failed.
func (r *recorder) record(write bool, t0, t1 time.Time, k, bad int) {
	d := t1.Sub(r.start)
	if d < 0 {
		return // warm-up
	}
	w := int(d / r.window)
	if w >= len(r.wins) {
		r.done = true
		return
	}
	r.inTraced = r.trace && w%2 == 1
	ws := &r.wins[w]
	ws.failed += uint64(bad)
	if k -= bad; k == 0 {
		return
	}
	ws.ops += uint64(k)
	if write {
		ws.writes.add(int64(t1.Sub(t0)), k)
	} else {
		ws.reads.add(int64(t1.Sub(t0)), k)
	}
}

// begin opens the root span of a step if the step is sampled; the other
// span methods are no-ops on an unsampled step.
func (r *recorder) begin(now time.Time) {
	r.steps++
	r.root = -1
	if r.inTraced && r.steps%traceEvery == 0 {
		r.root = r.add("step", -1, now, now)
	}
}

func (r *recorder) add(name string, parent int, t0, t1 time.Time) int {
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, span{r.steps, name, parent, int64(t0.Sub(r.start)), int64(t1.Sub(r.start))})
	return len(r.spans) - 1
}

// call records a child span of the current step's root.
func (r *recorder) call(name string, t0, t1 time.Time) {
	if r.root >= 0 {
		r.add(name, r.root, t0, t1)
	}
}

// end closes the current step's root span.
func (r *recorder) end(now time.Time) {
	if r.root >= 0 {
		r.spans[r.root].EndNs = int64(now.Sub(r.start))
	}
}

// writeTrace writes every issuer's spans as one JSON document. Times are
// nanoseconds since the first timed window began.
func writeTrace(path, workload string, start time.Time, recs []*recorder) error {
	type issuerTrace struct {
		Issuer  int    `json:"issuer"`
		Dropped uint64 `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	doc := struct {
		Workload   string        `json:"workload"`
		StartUnix  int64         `json:"start_unix_ns"`
		SampleRate int           `json:"sampled_1_in"`
		Issuers    []issuerTrace `json:"issuers"`
	}{Workload: workload, StartUnix: start.UnixNano(), SampleRate: traceEvery}
	for i, r := range recs {
		doc.Issuers = append(doc.Issuers, issuerTrace{i, r.dropped, r.spans})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
