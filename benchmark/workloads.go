package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"sonuma"
	"sonuma/internal/fabric"
	"sonuma/internal/kvs"
)

// spec describes one workload: how its op stream is drawn and how the
// system under test is booted. Every serving knob is left at its package
// default, so a later change of a default shows up here.
type spec struct {
	name, why string

	items      int     // lines, blocks or keys the stream addresses
	writeShare float64 // share of ops that are writes
	readBurst  int     // reads per step (kvs MultiGet); 0 or 1: one op per step
	sequential bool    // steps are batches of maxBurst consecutive items
	zipfTheta  float64 // > 0: scrambled zipfian items; 0: uniform
	opBytes    int     // user payload bytes per op

	boot func(sp *spec, seed uint64, outDir string) (system, error)
}

// system is a booted instance of the program under test.
type system interface {
	// issuer returns the i-th issuer's handle on the system; it is called
	// on, and used only by, that issuer's goroutine.
	issuer(i int) stepper
	// counters reads the layers' public counters.
	counters() counters
	// audit runs the end-of-run check and reports items checked and bad.
	audit() (checked, bad uint64)
	close()
}

// stepper executes one generated step against the system, verifies what
// came back and records it.
type stepper interface {
	step(st *step, rec *recorder)
}

const (
	lineBytes  = 64
	blockBytes = 4096
	segBytes   = 16 << 20 // 64× the reach of the RMC's 32-entry, 8 KB-page TLB

	kvsNodes   = 4
	kvsKeys    = 4000
	kvsValue   = 64
	kvsBuckets = 512 // × 32 shards × 256 B slots = 4 MiB per node, beyond TLB reach
	auditKeys  = 256
)

var specs = []*spec{
	{
		name:  "rmc_small",
		why:   "64 B sync reads/writes 3:1 at random lines: per-op cost of qpring, RGP/RCP, proto pool and one chan-lane hop each way is everything; kvs idle",
		items: segBytes / lineBytes, writeShare: 0.25, opBytes: lineBytes,
		boot: bootRMC,
	},
	{
		name:  "rmc_bulk",
		why:   "batches of 8 sequential 4 KB reads/writes 3:1: unroll, 32-line batch framing, lane credits and payload copies dominate; per-op fixed cost and TLB misses do little",
		items: segBytes / blockBytes, writeShare: 0.25, sequential: true, opBytes: blockBytes,
		boot: bootRMC,
	},
	{
		name:  "kvs_read",
		why:   "95 % GETs as MultiGet bursts of 8, 5 % PUTs, zipfian 0.99 on 4 nodes: one-sided GET path and burst batching do the work; messenger and replication do little",
		items: kvsKeys, writeShare: 0.05, readBurst: maxBurst, zipfTheta: 0.99, opBytes: kvsValue,
		boot: bootKVS,
	},
	{
		name:  "kvs_write",
		why:   "50 % single GETs, 50 % PUTs, uniform keys: messenger forward and ack, seqlock-bracketed replication and the store serve loop do the work beside single-GET reads",
		items: kvsKeys, writeShare: 0.5, opBytes: kvsValue,
		boot: bootKVS,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// counters are the layers' public counters, summed over the nodes this
// process hosts.
type counters struct {
	rmc       sonuma.RMCStats
	kvs       kvs.StoreStats
	wireBytes uint64 // socket fabric only
}

func (c *counters) addRMC(s sonuma.RMCStats) {
	c.rmc.WQConsumed += s.WQConsumed
	c.rmc.LinesSent += s.LinesSent
	c.rmc.BatchesSent += s.BatchesSent
	c.rmc.RequestsRecv += s.RequestsRecv
	c.rmc.Completions += s.Completions
	c.rmc.Errors += s.Errors
	c.rmc.TLBMisses += s.TLBMisses
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics turns two counter snapshots into the per-layer ratios of one
// workload's timed windows.
func layerMetrics(res *result, a, b counters, ops, puts float64) {
	d := func(x, y uint64) uint64 { return y - x }
	wq := d(a.rmc.WQConsumed, b.rmc.WQConsumed)
	lines := d(a.rmc.LinesSent, b.rmc.LinesSent)
	res.put("emu.lines_per_op", ratio(lines, wq), "lines/op")
	res.put("emu.lines_per_batch", ratio(lines, d(a.rmc.BatchesSent, b.rmc.BatchesSent)), "lines/batch")
	res.put("emu.tlb_miss_share", ratio(d(a.rmc.TLBMisses, b.rmc.TLBMisses), d(a.rmc.RequestsRecv, b.rmc.RequestsRecv)), "share")
	res.put("emu.error_share", ratio(d(a.rmc.Errors, b.rmc.Errors), d(a.rmc.Completions, b.rmc.Completions)), "share")
	res.put("emu.rmc_ops_per_kvs_op", float64(wq)/ops, "1/op")

	fwd := d(a.kvs.PutsForwarded, b.kvs.PutsForwarded)
	msgs := d(a.kvs.MsgsHandled, b.kvs.MsgsHandled)
	perPut := func(n uint64) float64 {
		if puts == 0 {
			return 0
		}
		return float64(n) / puts
	}
	res.put("kvs.put_forward_share", perPut(fwd), "share")
	res.put("kvs.msgs_per_put", perPut(msgs), "1/op")
	res.put("kvs.replica_writes_per_put", perPut(d(a.kvs.ReplicaWrites, b.kvs.ReplicaWrites)), "1/op")
	res.put("kvs.fenced", float64(d(a.kvs.Fenced, b.kvs.Fenced)), "count")
	res.put("kvs.epoch_bumps", float64(d(a.kvs.EpochBumps, b.kvs.EpochBumps)), "count")
}

// ---------------------------------------------------------------------------
// rmc_small, rmc_bulk and the socket rung: two nodes, issuer i runs on node i
// and addresses the whole segment of node 1-i.

// fillItem writes the content item id of node's segment holds at generation
// gen: one hash per 64 B line, then a stride per word, so every line differs
// and a 4 KB block costs 64 hashes, not 512.
func fillItem(dst []byte, seed uint64, node int, id uint32, gen uint8) {
	firstLine := uint64(id) * uint64(len(dst)/lineBytes)
	for l := 0; l*lineBytes < len(dst); l++ {
		w := mix64(seed ^ uint64(node)<<56 ^ (firstLine+uint64(l))<<8 ^ uint64(gen))
		for k := 0; k < lineBytes; k += 8 {
			binary.LittleEndian.PutUint64(dst[l*lineBytes+k:], w)
			w += 0x9E3779B97F4A7C15
		}
	}
}

type rmcSystem struct {
	sp       *spec
	seed     uint64
	clusters []*sonuma.Cluster // one in-process, or one per socket endpoint
	nodes    [issuers]*sonuma.Node
	sockets  *socketPair // nil in-process
	is       [issuers]*rmcIssuer
}

// bootRMC boots the 2-node in-process cluster.
func bootRMC(sp *spec, seed uint64, _ string) (system, error) {
	cl, err := sonuma.NewCluster(sonuma.Config{Nodes: issuers})
	if err != nil {
		return nil, err
	}
	s := &rmcSystem{sp: sp, seed: seed, clusters: []*sonuma.Cluster{cl}}
	for i := range s.nodes {
		s.nodes[i] = cl.Node(i)
	}
	return s, s.open()
}

// socketPair is a 2-node socket fabric with both endpoints in this process:
// endpoint i hosts node i.
type socketPair struct {
	dir  string
	ends [2]*fabric.ProcFabric
}

func newSocketPair(outDir string) (*socketPair, error) {
	// A directory relative to the working directory keeps the socket paths
	// under sockaddr_un's 108 bytes wherever the checkout lives.
	dir, err := os.MkdirTemp(outDir, "sock")
	if err != nil {
		return nil, err
	}
	p := &socketPair{dir: dir}
	for i := range p.ends {
		if p.ends[i], err = fabric.NewProcFabric(fabric.ProcConfig{Nodes: 2, Local: []int{i}, Dir: dir}); err != nil {
			p.close()
			return nil, err
		}
	}
	for _, pf := range p.ends {
		if err := pf.WaitReady(10 * time.Second); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

func (p *socketPair) close() {
	for _, pf := range p.ends {
		if pf != nil {
			pf.Close()
		}
	}
	os.RemoveAll(p.dir)
}

// bootRMCOverSockets boots the same two nodes on a socketPair, each endpoint
// with its own cluster view: every line crosses a unix socket, but the OS
// scheduler has one process to place. No workload runs on it (as one it
// multiplied the host's noise, see README.md); rungSonumaOverSockets does.
func bootRMCOverSockets(sp *spec, seed uint64, outDir string) (system, error) {
	pair, err := newSocketPair(outDir)
	if err != nil {
		return nil, err
	}
	s := &rmcSystem{sp: sp, seed: seed, sockets: pair}
	for i, pf := range pair.ends {
		cl, err := sonuma.NewClusterWithTransport(sonuma.Config{}, pf, []int{i})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clusters = append(s.clusters, cl)
		s.nodes[i] = cl.Node(i)
	}
	return s, s.open()
}

// open opens the context on both nodes, fills both segments with the
// generation-0 pattern and gives each issuer its QP and buffer.
func (s *rmcSystem) open() error {
	size := s.sp.opBytes
	var ctxs [issuers]*sonuma.Context
	for i, node := range s.nodes {
		ctx, err := node.OpenContext(1, segBytes)
		if err != nil {
			s.close()
			return err
		}
		ctxs[i] = ctx
		mem := ctx.Memory().Bytes()
		for id := 0; id < s.sp.items; id++ {
			fillItem(mem[id*size:(id+1)*size], s.seed, i, uint32(id), 0)
		}
	}
	for i, ctx := range ctxs {
		qp, err := ctx.NewQP(0)
		if err != nil {
			s.close()
			return err
		}
		buf, err := ctx.AllocBuffer(maxBurst * size)
		if err != nil {
			s.close()
			return err
		}
		is := &rmcIssuer{
			seed: s.seed, peer: 1 - i, size: size, qp: qp, buf: buf,
			gens: make([]uint8, s.sp.items), want: make([]byte, size),
		}
		if s.sp.sequential {
			is.batch = qp.NewBatch()
			for k := range is.cbs {
				k := k
				is.cbs[k] = func(_ int, err error) { is.doneAt[k], is.errs[k] = time.Now(), err }
			}
		}
		s.is[i] = is
	}
	return nil
}

func (s *rmcSystem) issuer(i int) stepper { return s.is[i] }

func (s *rmcSystem) counters() counters {
	var c counters
	for i, node := range s.nodes {
		c.addRMC(node.RMCStats())
		if s.sockets != nil {
			c.wireBytes += s.sockets.ends[i].Bytes.Load()
		}
	}
	return c
}

func (s *rmcSystem) audit() (uint64, uint64) { return 0, 0 }

func (s *rmcSystem) close() {
	for _, cl := range s.clusters {
		cl.Close()
	}
	if s.sockets != nil {
		s.sockets.close()
	}
}

type rmcIssuer struct {
	seed uint64
	peer int
	size int
	qp   *sonuma.QP
	buf  *sonuma.Buffer
	gens []uint8 // generation of each item of the peer's segment; this issuer is its only writer
	want []byte  // scratch: the content a read must return

	batch  *sonuma.Batch
	cbs    [maxBurst]sonuma.Completion
	doneAt [maxBurst]time.Time
	errs   [maxBurst]error
}

func (is *rmcIssuer) verify(got []byte, id uint32) bool {
	fillItem(is.want, is.seed, is.peer, id, is.gens[id])
	return bytes.Equal(got, is.want)
}

func (is *rmcIssuer) step(st *step, rec *recorder) {
	if is.batch != nil {
		is.stepBatch(st, rec)
		return
	}
	rec.begin(time.Now())
	o := st.ops[0]
	off := uint64(o.id) * uint64(is.size)
	local := is.buf.Bytes()[:is.size]
	bad := 0
	var t0, t1 time.Time
	if o.write {
		fillItem(local, is.seed, is.peer, o.id, is.gens[o.id]+1)
		t0 = time.Now()
		err := is.qp.Write(is.peer, off, is.buf, 0, is.size)
		t1 = time.Now()
		rec.call("QP.Write", t0, t1)
		if err == nil {
			is.gens[o.id]++
		} else {
			bad = 1
		}
	} else {
		t0 = time.Now()
		err := is.qp.Read(is.peer, off, is.buf, 0, is.size)
		t1 = time.Now()
		rec.call("QP.Read", t0, t1)
		if err != nil || !is.verify(local, o.id) {
			bad = 1
		}
	}
	rec.record(o.write, t0, t1, 1, bad)
	rec.end(time.Now())
}

// stepBatch keeps one batch of maxBurst block ops in flight: stage, Submit,
// drain. An op's latency runs from Submit to its own completion callback.
func (is *rmcIssuer) stepBatch(st *step, rec *recorder) {
	rec.begin(time.Now())
	local := is.buf.Bytes()
	for k, o := range st.ops[:st.n] {
		off := uint64(o.id) * uint64(is.size)
		if o.write {
			fillItem(local[k*is.size:(k+1)*is.size], is.seed, is.peer, o.id, is.gens[o.id]+1)
			is.batch.Write(is.peer, off, is.buf, k*is.size, is.size, is.cbs[k])
		} else {
			is.batch.Read(is.peer, off, is.buf, k*is.size, is.size, is.cbs[k])
		}
	}
	t0 := time.Now()
	_, err := is.batch.Submit()
	t1 := time.Now()
	if err == nil {
		err = is.qp.DrainCQ()
	}
	t2 := time.Now()
	rec.call("Batch.Submit", t0, t1)
	rec.call("QP.DrainCQ", t1, t2)
	for k, o := range st.ops[:st.n] {
		bad := 0
		switch {
		case err != nil || is.errs[k] != nil:
			bad, is.doneAt[k] = 1, t2
		case o.write:
			is.gens[o.id]++
		case !is.verify(local[k*is.size:(k+1)*is.size], o.id):
			bad = 1
		}
		rec.record(o.write, t0, is.doneAt[k], 1, bad)
	}
	rec.end(time.Now())
}

// ---------------------------------------------------------------------------
// kvs_read, kvs_write: a 4-node, rf=2 store; issuer i drives a client on
// node i.

// kvsFill writes the value key id holds at generation gen: id and gen in
// the first word, the rest derived from it, so a GET can be checked from
// the bytes alone (right key, untorn, the generation some PUT wrote).
func kvsFill(dst []byte, id, gen uint32) {
	w := uint64(id) | uint64(gen)<<32
	binary.LittleEndian.PutUint64(dst, w)
	for k := 8; k < len(dst); k += 8 {
		w = mix64(w)
		binary.LittleEndian.PutUint64(dst[k:], w)
	}
}

type kvsSystem struct {
	sp      *spec
	cluster *sonuma.Cluster
	stores  []*kvs.Store
	keys    [][]byte
	is      [issuers]*kvsIssuer
}

func bootKVS(sp *spec, seed uint64, _ string) (system, error) {
	cl, err := sonuma.NewCluster(sonuma.Config{Nodes: kvsNodes})
	if err != nil {
		return nil, err
	}
	s := &kvsSystem{sp: sp, cluster: cl, keys: make([][]byte, sp.items)}
	cfg := kvs.Config{Buckets: kvsBuckets}
	for n := 0; n < kvsNodes; n++ {
		ctx, err := cl.Node(n).OpenContext(1, cfg.SegmentSize(kvsNodes))
		if err != nil {
			s.close()
			return nil, err
		}
		st, err := kvs.Open(ctx, cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores = append(s.stores, st)
	}
	for id := range s.keys {
		// The seed is in the key, so it also moves keys between shards.
		s.keys[id] = []byte(fmt.Sprintf("k%05d-%08x", id, uint32(mix64(seed))))
	}
	for i := range s.is {
		c, err := s.stores[i].NewClient()
		if err != nil {
			s.close()
			return nil, err
		}
		s.is[i] = &kvsIssuer{
			me: i, c: c, keys: s.keys, readBurst: sp.readBurst,
			gens: make([]uint32, sp.items), val: make([]byte, kvsValue), want: make([]byte, kvsValue),
		}
	}
	// Preload: each issuer PUTs the keys it owns, in parallel.
	var wg sync.WaitGroup
	errs := make([]error, issuers)
	for i, is := range s.is {
		wg.Add(1)
		go func(i int, is *kvsIssuer) {
			defer wg.Done()
			for id := i; id < len(s.keys) && errs[i] == nil; id += issuers {
				errs[i] = is.put(uint32(id))
			}
		}(i, is)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return s, nil
}

func (s *kvsSystem) issuer(i int) stepper { return s.is[i] }

func (s *kvsSystem) counters() counters {
	var c counters
	for n, st := range s.stores {
		c.addRMC(s.cluster.Node(n).RMCStats())
		ss := st.Stats()
		c.kvs.MsgsHandled += ss.MsgsHandled
		c.kvs.PutsForwarded += ss.PutsForwarded
		c.kvs.ReplicaWrites += ss.ReplicaWrites
		c.kvs.Fenced += ss.Fenced
		c.kvs.EpochBumps += ss.EpochBumps
	}
	return c
}

// audit reads auditKeys keys from every replica that holds them and counts
// the keys whose replicas are not byte-identical, valid values.
func (s *kvsSystem) audit() (checked, bad uint64) {
	is := s.is[0]
	ring := s.stores[0].Ring()
	for k := 0; k < auditKeys; k++ {
		id := uint32(k * len(s.keys) / auditKeys)
		var first []byte
		ok := true
		for _, node := range ring.Owners(ring.ShardOf(s.keys[id])) {
			v, err := is.c.GetReplica(node, s.keys[id])
			switch {
			case err != nil || !is.valid(v, id):
				ok = false
			case first == nil:
				first = append(first, v...)
			case !bytes.Equal(first, v):
				ok = false
			}
		}
		checked++
		if !ok {
			bad++
		}
	}
	return checked, bad
}

func (s *kvsSystem) close() {
	for _, st := range s.stores {
		st.Close()
	}
	s.cluster.Close()
}

type kvsIssuer struct {
	me        int
	c         *kvs.Client
	keys      [][]byte
	readBurst int
	// gens[id] is the generation this issuer last PUT for a key it owns
	// (id % issuers == me). A key has one writer, so a GET of an owned key
	// must return exactly that generation.
	gens  []uint32
	val   []byte
	want  []byte
	burst [maxBurst][]byte
}

func (is *kvsIssuer) put(id uint32) error {
	kvsFill(is.val, id, is.gens[id]+1)
	if err := is.c.Put(is.keys[id], is.val); err != nil {
		return err
	}
	is.gens[id]++
	return nil
}

// valid checks a value read for key id: it must be a value some PUT wrote
// for that key and, for a key this issuer owns, the last one it wrote.
func (is *kvsIssuer) valid(v []byte, id uint32) bool {
	if len(v) != kvsValue {
		return false
	}
	w := binary.LittleEndian.Uint64(v)
	gen := uint32(w >> 32)
	if uint32(w) != id || gen == 0 {
		return false
	}
	if int(id)%issuers == is.me && gen != is.gens[id] {
		return false
	}
	kvsFill(is.want, id, gen)
	return bytes.Equal(v, is.want)
}

func (is *kvsIssuer) step(st *step, rec *recorder) {
	rec.begin(time.Now())
	o := st.ops[0]
	switch {
	case o.write:
		// Writes go to a key this issuer owns: the drawn key or its
		// neighbour (the key count is even, keys are scrambled).
		id := o.id - o.id%issuers + uint32(is.me)
		t0 := time.Now()
		err := is.put(id)
		t1 := time.Now()
		rec.call("Client.Put", t0, t1)
		bad := 0
		if err != nil {
			bad = 1
		}
		rec.record(true, t0, t1, 1, bad)
	case st.n == 1:
		t0 := time.Now()
		v, err := is.c.Get(is.keys[o.id])
		t1 := time.Now()
		rec.call("Client.Get", t0, t1)
		bad := 0
		if err != nil || !is.valid(v, o.id) {
			bad = 1
		}
		rec.record(false, t0, t1, 1, bad)
	default:
		// The burst's latency is attributed to each of its keys.
		for k, o := range st.ops[:st.n] {
			is.burst[k] = is.keys[o.id]
		}
		t0 := time.Now()
		vals, errs := is.c.MultiGet(is.burst[:st.n])
		t1 := time.Now()
		rec.call("Client.MultiGet", t0, t1)
		bad := 0
		for k, o := range st.ops[:st.n] {
			if errs[k] != nil || !is.valid(vals[k], o.id) {
				bad++
			}
		}
		rec.record(false, t0, t1, st.n, bad)
	}
	rec.end(time.Now())
}
