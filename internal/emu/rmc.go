package emu

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sonuma/internal/core"
	"sonuma/internal/fabric"
	"sonuma/internal/mmu"
	"sonuma/internal/proto"
	"sonuma/internal/qpring"
)

// Config holds the RMC emulation parameters. The zero value selects the
// defaults below.
type Config struct {
	// ITTEntries bounds concurrently in-flight WQ requests per node
	// (Inflight Transaction Table size). Max 4096 (tid packs a 12-bit
	// index plus a 4-bit generation).
	ITTEntries int
	// TLBEntries and TLBWays size the RMC's TLB (Table 1: 32 entries).
	TLBEntries int
	TLBWays    int
	// PageSize for context segments (Table 1: 8 KB).
	PageSize int
	// PollBudget bounds WQ entries consumed per QP per scheduling pass,
	// so one busy QP cannot starve others.
	PollBudget int
	// BatchSize is the number of line transactions the RGP packs into
	// one fabric batch per destination (default proto.MaxBatch, clamped
	// to [1, proto.MaxBatch]). 1 selects the per-packet data path, kept
	// for ablation benchmarks.
	BatchSize int
	// OpTimeout bounds how long a WQ request may stay in flight before
	// the RCP completes it with StatusNodeFailure (default 2s). The
	// fabric signals loss with failure events when it can, and those
	// flush matching ITT state immediately — but a reply can be lost
	// against a peer whose link looks healthy from THIS side (most
	// plainly across a peer process restart), and a sync caller would
	// otherwise wait forever. Generous by three orders of magnitude over
	// any real completion, so it never fires on a slow op, only on a
	// lost one.
	OpTimeout time.Duration
}

const maxITT = 4096

// idleSpins is how many consecutive empty passes a wait loop makes before it
// parks: the RGP/RCP pipeline over its WQs and lanes, an application over
// its CQ (WaitCQ). Whoever the spinner waits for is another goroutine of
// the same process, so on a host with no idle core every empty pass delays
// the very wake-up it is waiting for: on the 2-vCPU development box
// rmc_small does 415 k ops/s at 2 passes, 375 k at 8, 343 k at 16, 295 k at
// 32 and 1.2× the pre-PR-14 rate at the previous 128 (RGP/RCP) / 64 (CQ).
// 16 and not 2 because a pipeline that parks at once is bound by nothing
// but the host's momentary core speed and the runtime's scheduler lock,
// and its throughput wanders with both: from one run to the next the
// middle half of rmc_small spread 23 k ops/s at 2 passes and 13 k at 16 —
// see CHANGES.md, PR 14, for the sweep.
const idleSpins = 16

func (c Config) withDefaults() Config {
	if c.ITTEntries <= 0 {
		c.ITTEntries = 1024
	}
	if c.ITTEntries > maxITT {
		c.ITTEntries = maxITT
	}
	if c.TLBEntries <= 0 {
		c.TLBEntries = 32
	}
	if c.TLBWays <= 0 {
		c.TLBWays = 4
	}
	if c.PageSize <= 0 {
		c.PageSize = mmu.DefaultPageSize
	}
	if c.PollBudget <= 0 {
		c.PollBudget = 32
	}
	if c.BatchSize <= 0 || c.BatchSize > proto.MaxBatch {
		c.BatchSize = proto.MaxBatch
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	return c
}

// Stats are per-RMC counters exported for the experiment harness.
type Stats struct {
	WQConsumed   atomic.Uint64 // WQ entries accepted by the RGP
	LinesSent    atomic.Uint64 // request packets injected
	BatchesSent  atomic.Uint64 // request batches flushed into the fabric
	RepliesRecv  atomic.Uint64 // reply packets processed by the RCP
	RequestsRecv atomic.Uint64 // request packets processed by the RRPP
	Completions  atomic.Uint64 // CQ entries posted
	Errors       atomic.Uint64 // non-OK completions
	TLBMisses    atomic.Uint64 // RRPP-side translation misses
}

// NotifyFunc handles a remote-interrupt notification raised by an
// OpWriteNotify request (§8). It runs on the RRPP pipeline goroutine and
// must not block; typical handlers forward into a channel.
type NotifyFunc func(src core.NodeID, offset uint64, n int)

// ContextState is the per-node view of one global address space: the CT
// entry (§4.2) holding the local context segment, its address space /
// page-table root, and the registered local buffers.
type ContextState struct {
	ID      core.CtxID
	Seg     *Segment
	AS      *mmu.AddressSpace
	node    core.NodeID
	notify  atomic.Pointer[NotifyFunc]
	mu      sync.RWMutex
	buffers []*Segment
}

// SetNotifyHandler installs (or, with nil, removes) the context's remote-
// interrupt handler.
func (cs *ContextState) SetNotifyHandler(fn NotifyFunc) {
	if fn == nil {
		cs.notify.Store(nil)
		return
	}
	cs.notify.Store(&fn)
}

// NodeID reports the owning node.
func (cs *ContextState) NodeID() core.NodeID { return cs.node }

// RegisterBuffer pins a fresh local buffer of size bytes for use as a
// source/destination of remote operations and returns its id.
func (cs *ContextState) RegisterBuffer(size int) (uint32, *Segment, error) {
	if size <= 0 {
		return 0, nil, fmt.Errorf("emu: invalid buffer size %d", size)
	}
	b := NewSegment(size)
	cs.mu.Lock()
	id := uint32(len(cs.buffers))
	cs.buffers = append(cs.buffers, b)
	cs.mu.Unlock()
	return id, b, nil
}

// Buffer returns the registered buffer with the given id.
func (cs *ContextState) Buffer(id uint32) *Segment {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	if int(id) >= len(cs.buffers) {
		return nil
	}
	return cs.buffers[id]
}

// QPState is one registered queue pair: the application posts WQ entries
// and polls CQ entries; the RMC does the reverse. A QP belongs to one
// context and must be driven by a single application goroutine.
type QPState struct {
	Ctx *ContextState
	WQ  *qpring.WQ
	CQ  *qpring.CQ
	// CQDoorbell is kicked (non-blocking) whenever a completion is posted
	// and once when the RMC stops, so WaitCQ can park on it alone.
	CQDoorbell chan struct{}
	parks      uint64 // times WaitCQ blocked on CQDoorbell (owner goroutine only)
	rmc        *RMC
}

// WaitCQ returns the QP's next completion: it polls the CQ (the paper's
// applications poll the completion queue) and, after idleSpins empty polls,
// parks on CQDoorbell. ok is false once the RMC has stopped and nothing is
// pending. The stop check sits between the poll and the park, and RMC.stop
// kicks the doorbell after closing stopped, so a stop can not be missed.
func (qp *QPState) WaitCQ() (e qpring.CQEntry, ok bool) {
	for idle := 0; ; {
		if e, ok = qp.CQ.Poll(); ok {
			return e, true
		}
		if idle++; idle < idleSpins {
			continue
		}
		if qp.rmc.isStopped() {
			return e, false
		}
		qp.parks++
		<-qp.CQDoorbell
		idle = 0
	}
}

func (qp *QPState) kickCQ() {
	select {
	case qp.CQDoorbell <- struct{}{}:
	default:
	}
}

// Doorbell wakes the RGP after a WQ post (the hardware analogue is the RMC
// noticing the cached WQ tail change; the channel makes parking efficient).
// Applications posting a burst of WQ entries ring it once for the burst
// (doorbell coalescing).
func (qp *QPState) Doorbell() { qp.rmc.Doorbell() }

// ittEntry tracks one in-flight WQ request (§4.2: "the ITT ... keeps track
// of the progress of each WQ request", indexed by tid).
type ittEntry struct {
	active    bool
	gen       uint16
	qp        *QPState
	wqIdx     uint32
	op        core.Op
	node      core.NodeID
	buf       *Segment
	bufOff    uint64
	remaining uint32
	status    core.Status
	linkEpoch uint64    // fabric link-failure epoch at issue time
	issuedAt  time.Time // RGP accept time; bounds the in-flight wait (OpTimeout)
}

// ctrlEvent is a fabric health notification delivered to the RGP/RCP
// pipeline: a failed or restored node, or a failed or restored link
// (isLink set, epoch valid).
type ctrlEvent struct {
	node    core.NodeID
	linkTo  core.NodeID
	isLink  bool
	restore bool
	epoch   uint64
}

// RMC is the emulated remote memory controller for one node: the Context
// Table, the ITT, and the three pipelines of Fig. 3, with RGP+RCP sharing
// one goroutine and RRPP running on another (exactly the thread split of
// the paper's RMCemu, §7.1).
//
// The data path is batched and allocation-free in steady state: the RGP
// drains WQs round-robin into per-destination batch builders and flushes
// whole batches into the fabric's shard queues; the RCP and RRPP consume
// batches and recycle every packet back to the proto pool on completion.
type RMC struct {
	id  core.NodeID
	ic  fabric.Transport
	cfg Config

	ctxMu    sync.RWMutex
	contexts map[core.CtxID]*ContextState

	qps atomic.Pointer[[]*QPState]

	tlb *mmu.TLB // RRPP-side translations, ASID-tagged per context

	itt     []ittEntry
	ittFree []uint16

	// Per-destination request batch builders (RGP side). txq[d] is the
	// batch under construction toward node d; txdirty lists destinations
	// touched since the last flushAll (txpending dedups it, keeping it
	// bounded by the node count), flushed after every scheduling pass.
	txq       []*proto.Batch
	txdirty   []core.NodeID
	txpending []bool

	// Every channel a pipeline goroutine or an application parks on
	// belongs to this RMC alone; the transport's Done() reaches them
	// through stop (see the fabric.Transport contract for why).
	doorbell chan struct{}
	control  chan ctrlEvent // failed node/link notifications
	stopped  chan struct{}  // closed by stop
	stopOnce sync.Once
	wg       sync.WaitGroup

	cbMu          sync.Mutex
	onFailure     []func(core.NodeID)
	onRestore     []func(core.NodeID)
	onLinkFailure []func(a, b core.NodeID)
	onLinkRestore []func(a, b core.NodeID)

	// linkSeen/nodeSeen record, per undirected link and per node, the
	// highest event epoch whose callbacks this RMC has delivered. Fabric
	// watchers fire asynchronously, so a Fail/Restore pair racing through
	// the control channel can arrive out of order; callbacks for an event
	// older than one already delivered for the same link or node are
	// suppressed so services always observe the final state last. (ITT
	// flushes are NOT suppressed — a stale failure still identifies
	// transactions whose replies were dropped during the outage window.)
	// Pipeline-goroutine state; no lock.
	linkSeen map[[2]core.NodeID]uint64
	nodeSeen map[core.NodeID]uint64

	Stats Stats
}

// NewRMC creates and starts the RMC pipelines for node id. The transport
// may be the in-process interconnect or a process fabric; the RMC is
// agnostic.
func NewRMC(id core.NodeID, ic fabric.Transport, cfg Config) *RMC {
	cfg = cfg.withDefaults()
	r := &RMC{
		id:        id,
		ic:        ic,
		cfg:       cfg,
		contexts:  make(map[core.CtxID]*ContextState),
		tlb:       mmu.NewTLB(cfg.TLBEntries, cfg.TLBWays),
		itt:       make([]ittEntry, cfg.ITTEntries),
		ittFree:   make([]uint16, 0, cfg.ITTEntries),
		txq:       make([]*proto.Batch, ic.Nodes()),
		txdirty:   make([]core.NodeID, 0, ic.Nodes()),
		txpending: make([]bool, ic.Nodes()),
		doorbell:  make(chan struct{}, 1),
		control:   make(chan ctrlEvent, 16),
		stopped:   make(chan struct{}),
		linkSeen:  make(map[[2]core.NodeID]uint64),
		nodeSeen:  make(map[core.NodeID]uint64),
	}
	for i := cfg.ITTEntries - 1; i >= 0; i-- {
		r.ittFree = append(r.ittFree, uint16(i))
	}
	empty := []*QPState{}
	r.qps.Store(&empty)
	notify := func(ev ctrlEvent) {
		select {
		case r.control <- ev:
		case <-r.stopped:
		}
	}
	ic.Watch(func(failed core.NodeID, epoch uint64) {
		notify(ctrlEvent{node: failed, epoch: epoch})
	})
	ic.WatchRestore(func(restored core.NodeID, epoch uint64) {
		notify(ctrlEvent{node: restored, restore: true, epoch: epoch})
	})
	ic.WatchLink(func(a, b core.NodeID, epoch uint64) {
		notify(ctrlEvent{node: a, linkTo: b, isLink: true, epoch: epoch})
	})
	ic.WatchLinkRestore(func(a, b core.NodeID, epoch uint64) {
		notify(ctrlEvent{node: a, linkTo: b, isLink: true, restore: true, epoch: epoch})
	})
	r.wg.Add(3)
	go r.runRGPRCP()
	go r.runRRPP()
	// The one waiter on the transport's Done(): parked for the RMC's whole
	// life, it forwards a transport that dies on its own (a ProcFabric
	// closed under a live cluster) into the stop path.
	go func() {
		defer r.wg.Done()
		select {
		case <-ic.Done():
			r.stop()
		case <-r.stopped:
		}
	}()
	return r
}

// NodeID reports the RMC's fabric address.
func (r *RMC) NodeID() core.NodeID { return r.id }

// OnFailure registers a driver failure-notification callback (§5.1).
// Callbacks accumulate — services and applications can each register one —
// and every registered callback runs, in registration order, on the RMC
// pipeline goroutine; callbacks must not block.
func (r *RMC) OnFailure(fn func(core.NodeID)) {
	r.cbMu.Lock()
	r.onFailure = append(r.onFailure, fn)
	r.cbMu.Unlock()
}

// OnRestore registers a driver node-restore callback — the symmetric half
// of OnFailure, invoked when the fabric reports a previously failed node
// restored. Callbacks accumulate and run on the RMC pipeline goroutine
// without blocking.
func (r *RMC) OnRestore(fn func(core.NodeID)) {
	r.cbMu.Lock()
	r.onRestore = append(r.onRestore, fn)
	r.cbMu.Unlock()
}

// OnLinkFailure registers a driver link-failure callback, invoked after
// the RMC has flushed the in-flight transactions stranded by a failed link
// a↔b. Like OnFailure, callbacks accumulate and run on the RMC pipeline
// goroutine without blocking. Replicated services use them to stop routing
// traffic through nodes the fabric can no longer reach.
func (r *RMC) OnLinkFailure(fn func(a, b core.NodeID)) {
	r.cbMu.Lock()
	r.onLinkFailure = append(r.onLinkFailure, fn)
	r.cbMu.Unlock()
}

// OnLinkRestore registers a driver link-restore callback — the symmetric
// half of OnLinkFailure. Delivery is epoch-ordered per link: if a failure
// and a restore of the same link race through the asynchronous
// notification path, the callback for the older event is suppressed, so
// a service always hears about the link's final state last.
func (r *RMC) OnLinkRestore(fn func(a, b core.NodeID)) {
	r.cbMu.Lock()
	r.onLinkRestore = append(r.onLinkRestore, fn)
	r.cbMu.Unlock()
}

// nodeCallbacks snapshots the registered node failure/restore callback
// lists for invocation outside the lock.
func (r *RMC) nodeCallbacks() ([]func(core.NodeID), []func(core.NodeID)) {
	r.cbMu.Lock()
	defer r.cbMu.Unlock()
	return append([]func(core.NodeID){}, r.onFailure...),
		append([]func(core.NodeID){}, r.onRestore...)
}

// linkCallbacks snapshots the registered link failure/restore callback
// lists for invocation outside the lock.
func (r *RMC) linkCallbacks() ([]func(a, b core.NodeID), []func(a, b core.NodeID)) {
	r.cbMu.Lock()
	defer r.cbMu.Unlock()
	return append([]func(a, b core.NodeID){}, r.onLinkFailure...),
		append([]func(a, b core.NodeID){}, r.onLinkRestore...)
}

// OpenContext registers a context segment of size bytes under ctx id,
// creating the CT entry the RRPP consults for incoming requests.
func (r *RMC) OpenContext(id core.CtxID, size int) (*ContextState, error) {
	as, err := mmu.NewAddressSpace(mmu.ASID(id), size, r.cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cs := &ContextState{ID: id, Seg: NewSegment(size), AS: as, node: r.id}
	r.ctxMu.Lock()
	defer r.ctxMu.Unlock()
	if _, dup := r.contexts[id]; dup {
		return nil, fmt.Errorf("emu: context %d already open on node %d", id, r.id)
	}
	r.contexts[id] = cs
	return cs, nil
}

// Context returns the CT entry for id, or nil.
func (r *RMC) Context(id core.CtxID) *ContextState {
	r.ctxMu.RLock()
	defer r.ctxMu.RUnlock()
	return r.contexts[id]
}

// CreateQP registers a queue pair of the given depth on a context.
func (r *RMC) CreateQP(cs *ContextState, depth int) (*QPState, error) {
	if depth <= 0 {
		depth = 128
	}
	qp := &QPState{
		Ctx:        cs,
		WQ:         qpring.NewWQ(depth),
		CQ:         qpring.NewCQ(depth),
		CQDoorbell: make(chan struct{}, 1),
		rmc:        r,
	}
	for {
		old := r.qps.Load()
		next := make([]*QPState, len(*old)+1)
		copy(next, *old)
		next[len(*old)] = qp
		if r.qps.CompareAndSwap(old, &next) {
			break
		}
	}
	r.Doorbell()
	return qp, nil
}

// Doorbell wakes the RGP/RCP pipeline.
func (r *RMC) Doorbell() {
	select {
	case r.doorbell <- struct{}{}:
	default:
	}
}

// stop is the shutdown path: it closes stopped — which releases the RRPP's
// park and either pipeline's out-of-credits wait — then rings the doorbell
// the RGP/RCP parks on and every QP's CQDoorbell, so each waiter re-checks
// stopped. A QP registered after the snapshot sees stopped before it can
// park.
func (r *RMC) stop() {
	r.stopOnce.Do(func() {
		close(r.stopped)
		r.Doorbell()
		for _, qp := range *r.qps.Load() {
			qp.kickCQ()
		}
	})
}

// isStopped polls stopped; a non-blocking receive on an open channel takes
// no lock.
func (r *RMC) isStopped() bool {
	select {
	case <-r.stopped:
		return true
	default:
		return false
	}
}

// Close stops the pipelines and blocks until their goroutines exit;
// applications parked in WaitCQ are released. Closing the transport stops
// the RMC too.
func (r *RMC) Close() {
	r.stop()
	r.wg.Wait()
}

// ---------------------------------------------------------------------------
// RGP + RCP pipeline (one goroutine, as in RMCemu)

func (r *RMC) runRGPRCP() {
	defer r.wg.Done()
	replies := r.ic.Replies(r.id)
	// One ticker for the pipeline's life paces the op-timeout sweep; a
	// timer per park would be garbage on every idle moment.
	sweep := time.NewTicker(r.cfg.OpTimeout / 4)
	defer sweep.Stop()
	for idle, passes := 0, 0; !r.isStopped(); passes++ {
		worked := false
		// Time out lost in-flight requests. The tick is taken here every
		// 1024 busy passes and from the park select below, so both a busy
		// and an idle pipeline bound a lost reply's wait.
		if passes&1023 == 1023 {
			select {
			case <-sweep.C:
				r.sweepOpTimeouts()
			default:
			}
		}
		// RCP: drain all pending reply batches first; completions free
		// WQ slots and ITT entries that the RGP needs.
		for {
			select {
			case rb := <-replies:
				r.processReplies(rb)
				worked = true
				continue
			default:
			}
			break
		}
		// Control: failed node/link notifications flush matching ITT
		// state.
		select {
		case ev := <-r.control:
			r.handleControl(ev)
			worked = true
		default:
		}
		// RGP: poll registered WQs round-robin into the batch builders,
		// then flush every pending batch. Flushing after the pass (and
		// on every loop iteration before parking) bounds the latency a
		// line can sit in a builder to one scheduling pass.
		if r.pollWQs(replies) {
			worked = true
		}
		r.flushAll(replies)
		if worked {
			idle = 0
			continue
		}
		if idle++; idle < idleSpins {
			continue
		}
		// Park until any work signal arrives — stop rings the doorbell —
		// waking on the sweep cadence so a lost reply still times out
		// while the pipeline is idle.
		select {
		case rb := <-replies:
			r.processReplies(rb)
		case ev := <-r.control:
			r.handleControl(ev)
		case <-r.doorbell:
		case <-sweep.C:
			r.sweepOpTimeouts()
		}
		idle = 0
	}
}

// sweepOpTimeouts fails every in-flight ITT entry older than OpTimeout
// with StatusNodeFailure. This is the requester-side bound on a lost
// reply: fabric failure events flush matching entries promptly when this
// side can observe the loss, but a reply dropped by the PEER's side of a
// link (reconnect lag after a process restart) leaves no local trace, and
// without a bound a sync caller blocks forever.
func (r *RMC) sweepOpTimeouts() {
	if len(r.ittFree) == len(r.itt) {
		return // nothing in flight
	}
	now := time.Now()
	for idx := range r.itt {
		ent := &r.itt[idx]
		if ent.active && now.Sub(ent.issuedAt) > r.cfg.OpTimeout {
			r.failITT(uint16(idx), core.StatusNodeFailure)
		}
	}
}

// pollWQs runs one RGP pass over all QPs; it reports whether any entry was
// consumed. Generated line packets accumulate in the per-destination batch
// builders; the caller flushes them.
func (r *RMC) pollWQs(replies <-chan *proto.Batch) bool {
	qps := *r.qps.Load()
	consumed := false
	for _, qp := range qps {
		for n := 0; n < r.cfg.PollBudget; n++ {
			if len(r.ittFree) == 0 {
				return consumed // wait for completions to free ITT slots
			}
			e, idx, ok := qp.WQ.Poll()
			if !ok {
				break
			}
			consumed = true
			r.Stats.WQConsumed.Add(1)
			r.generate(qp, e, idx, replies)
		}
	}
	return consumed
}

// generate implements the RGP for one WQ entry (Fig. 3b): validate, init the
// ITT entry, unroll into line-sized request packets, and append them to the
// destination's batch builder. A multi-line transfer thus issues
// ceil(lines/BatchSize) fabric sends instead of one per line.
func (r *RMC) generate(qp *QPState, e qpring.WQEntry, wqIdx uint32, replies <-chan *proto.Batch) {
	length := e.Length
	if e.Op.IsAtomic() {
		length = 8
	}
	if length == 0 || length > core.MaxRequestLen {
		r.complete(qp, wqIdx, core.StatusBoundsError)
		return
	}
	var buf *Segment
	switch e.Op {
	case core.OpRead, core.OpWrite, core.OpWriteNotify:
		buf = qp.Ctx.Buffer(e.Buf)
		if buf == nil || e.BufOff+uint64(length) > uint64(buf.Size()) {
			r.complete(qp, wqIdx, core.StatusBoundsError)
			return
		}
	case core.OpFetchAdd, core.OpCompareSwap:
		// Result is optionally delivered to a local buffer; Buf of
		// ^uint32(0) means "discard result".
		if e.Buf != ^uint32(0) {
			buf = qp.Ctx.Buffer(e.Buf)
			if buf == nil || e.BufOff+8 > uint64(buf.Size()) {
				r.complete(qp, wqIdx, core.StatusBoundsError)
				return
			}
		}
		if e.Offset%8 != 0 || e.Offset%core.CacheLineSize > core.CacheLineSize-8 {
			r.complete(qp, wqIdx, core.StatusBadAlign)
			return
		}
	default:
		r.complete(qp, wqIdx, core.StatusBoundsError)
		return
	}

	// Allocate the ITT entry; tid packs index and generation so stale
	// replies from a flushed transaction are discarded.
	idx := r.ittFree[len(r.ittFree)-1]
	r.ittFree = r.ittFree[:len(r.ittFree)-1]
	ent := &r.itt[idx]
	ent.gen++
	nLines := uint32(core.Lines(int(length)))
	*ent = ittEntry{
		active: true, gen: ent.gen, qp: qp, wqIdx: wqIdx,
		op: e.Op, node: e.Node, buf: buf, bufOff: e.BufOff,
		remaining: nLines, status: core.StatusOK,
		linkEpoch: r.ic.LinkEpoch(), issuedAt: time.Now(),
	}
	tid := core.Tid(uint16(idx) | ent.gen<<12)

	// Unroll into line transactions (§4.2 RGP).
	for i := uint32(0); i < nLines; i++ {
		lineLen := uint32(core.CacheLineSize)
		if rem := length - i*core.CacheLineSize; rem < lineLen {
			lineLen = rem
		}
		pkt := proto.AllocPacket()
		pkt.Kind, pkt.Op = proto.KindRequest, e.Op
		pkt.Dst, pkt.Src, pkt.Ctx, pkt.Tid = e.Node, r.id, qp.Ctx.ID, tid
		pkt.Offset = e.Offset + uint64(i)*core.CacheLineSize
		pkt.LineIdx, pkt.Aux = i, lineLen
		if i == nLines-1 {
			pkt.Flags |= proto.FlagLast
		}
		switch e.Op {
		case core.OpWrite, core.OpWriteNotify:
			payload := pkt.AllocPayload(int(lineLen))
			if err := buf.ReadAt(int(e.BufOff+uint64(i)*core.CacheLineSize), payload); err != nil {
				proto.FreePacket(pkt)
				r.failITT(idx, core.StatusBoundsError)
				return
			}
		case core.OpFetchAdd:
			binary.LittleEndian.PutUint64(pkt.AllocPayload(8), e.Arg0)
		case core.OpCompareSwap:
			payload := pkt.AllocPayload(16)
			binary.LittleEndian.PutUint64(payload, e.Arg0)
			binary.LittleEndian.PutUint64(payload[8:], e.Arg1)
		}
		r.queueRequest(pkt, replies)
		if !ent.active {
			// The destination became unreachable and a batch flush
			// failed this transaction; stop unrolling it.
			return
		}
	}
}

// queueRequest appends a request packet to its destination's batch builder,
// flushing the builder once it reaches the configured batch size.
func (r *RMC) queueRequest(pkt *proto.Packet, replies <-chan *proto.Batch) {
	dst := int(pkt.Dst)
	if dst < 0 || dst >= len(r.txq) {
		// Out-of-fabric destination: fail the transaction immediately.
		// (Capture the tid before the free resets the packet.)
		tid := pkt.Tid
		proto.FreePacket(pkt)
		r.failTid(tid, core.StatusNodeFailure)
		return
	}
	b := r.txq[dst]
	if b == nil {
		b = proto.AllocBatch()
		r.txq[dst] = b
		if !r.txpending[dst] {
			r.txpending[dst] = true
			r.txdirty = append(r.txdirty, pkt.Dst)
		}
	}
	if !b.Append(pkt) {
		// Unreachable while BatchSize <= proto.MaxBatch (withDefaults
		// clamps it) and builders are per-destination; a silent drop
		// here would hang the transaction, so fail loudly.
		panic("emu: batch builder rejected packet (BatchSize > proto.MaxBatch?)")
	}
	if b.Len() >= r.cfg.BatchSize {
		r.flushDst(dst, replies)
	}
}

// flushDst sends the batch pending toward dst, if any. On fabric failure it
// completes every transaction with a line in the batch with
// StatusNodeFailure (replies already in flight are discarded by the
// generation check) and recycles the batch. On shutdown it completes
// nothing: stop releases the waiters, and they report the close.
func (r *RMC) flushDst(dst int, replies <-chan *proto.Batch) {
	b := r.txq[dst]
	if b == nil {
		return
	}
	r.txq[dst] = nil
	lines := uint64(b.Len()) // before the send: success forfeits ownership
	if err := r.send(b, replies); err != nil {
		if err != fabric.ErrClosed {
			for _, pkt := range b.Packets() {
				r.failTid(pkt.Tid, core.StatusNodeFailure)
			}
		}
		proto.FreeBatchPackets(b)
		return
	}
	r.Stats.LinesSent.Add(lines)
	r.Stats.BatchesSent.Add(1)
}

// flushAll flushes every pending batch builder.
func (r *RMC) flushAll(replies <-chan *proto.Batch) {
	if len(r.txdirty) == 0 {
		return
	}
	for _, dst := range r.txdirty {
		r.txpending[dst] = false
		r.flushDst(int(dst), replies)
	}
	r.txdirty = r.txdirty[:0]
}

// send injects a batch into its destination lane: one non-blocking send
// while the lane has credits, and only when it is out of them a wait on the
// lane, stopped and drain together. The RGP passes its own reply lane as
// drain and keeps completing replies while it waits, which avoids both
// deadlock (request/reply cycles) and lost wakeups (waiting for a reply
// that will never come because nothing of ours is in flight); the RRPP
// passes nil, because reply lanes always drain.
func (r *RMC) send(b *proto.Batch, drain <-chan *proto.Batch) error {
	// Statistics must be captured before the send: a delivered batch is
	// owned (and may already be recycled) by the receiver.
	kind, packets, wire := b.Kind(), b.Len(), b.WireSize()
	for {
		lane, err := r.ic.LaneFor(kind, r.id, b.Dst())
		if err != nil {
			return err
		}
		select {
		case lane <- b:
		default:
			select {
			case lane <- b:
			case rb := <-drain:
				r.processReplies(rb)
				continue
			case <-r.stopped:
				return fabric.ErrClosed
			}
		}
		r.ic.Account(kind, packets, wire)
		return nil
	}
}

// failTid fails the in-flight transaction identified by tid, if still
// active under the same generation.
func (r *RMC) failTid(tid core.Tid, status core.Status) {
	idx := uint16(tid) & 0xFFF
	gen := uint16(tid) >> 12
	if int(idx) >= len(r.itt) {
		return
	}
	if ent := &r.itt[idx]; ent.active && ent.gen&0xF == gen {
		r.failITT(idx, status)
	}
}

// failITT completes an in-flight ITT entry immediately with status and
// deactivates it; late replies are dropped by the generation check.
func (r *RMC) failITT(idx uint16, status core.Status) {
	ent := &r.itt[idx]
	if !ent.active {
		return
	}
	qp, wqIdx := ent.qp, ent.wqIdx
	ent.active = false
	r.ittFree = append(r.ittFree, idx)
	r.complete(qp, wqIdx, status)
}

// handleControl dispatches a fabric health notification.
func (r *RMC) handleControl(ev ctrlEvent) {
	if ev.isLink {
		if ev.restore {
			r.deliverLinkRestore(ev.node, ev.linkTo, ev.epoch)
		} else {
			r.flushLink(ev.node, ev.linkTo, ev.epoch)
		}
		return
	}
	if ev.restore {
		if !r.deliverNodeCallbacks(ev.node, ev.epoch) {
			return
		}
		_, cbs := r.nodeCallbacks()
		for _, fn := range cbs {
			fn(ev.node)
		}
		return
	}
	r.flushFailed(ev.node, ev.epoch)
}

// deliverNodeCallbacks reports whether callbacks for a node event at epoch
// should run, recording the epoch as delivered when they should — the
// node-level twin of deliverCallbacks.
func (r *RMC) deliverNodeCallbacks(id core.NodeID, epoch uint64) bool {
	if epoch <= r.nodeSeen[id] {
		return false
	}
	r.nodeSeen[id] = epoch
	return true
}

// linkKey normalizes an undirected link for the linkSeen map.
func linkKey(a, b core.NodeID) [2]core.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]core.NodeID{a, b}
}

// deliverCallbacks reports whether callbacks for a link event at epoch
// should run, recording the epoch as delivered when they should. An event
// older than one already delivered for the same link is stale: a racing
// newer Fail/Restore of that link overtook it in the notification path.
func (r *RMC) deliverCallbacks(a, b core.NodeID, epoch uint64) bool {
	k := linkKey(a, b)
	if epoch <= r.linkSeen[k] {
		return false
	}
	r.linkSeen[k] = epoch
	return true
}

// deliverLinkRestore runs the link-restore callbacks for a↔b, unless a
// newer event for the same link was already delivered. Restores flush
// nothing: no in-flight transaction is endangered by a link coming back.
func (r *RMC) deliverLinkRestore(a, b core.NodeID, epoch uint64) {
	if !r.deliverCallbacks(a, b, epoch) {
		return
	}
	_, cbs := r.linkCallbacks()
	for _, fn := range cbs {
		fn(a, b)
	}
}

// flushFailed completes every in-flight transaction addressed to a failed
// node with StatusNodeFailure and notifies the driver. The ITT flush runs
// even for a stale event (transactions issued before the failure lost
// their replies regardless of a racing restore); only the driver
// callbacks are epoch-gated.
func (r *RMC) flushFailed(failed core.NodeID, epoch uint64) {
	for i := range r.itt {
		if r.itt[i].active && r.itt[i].node == failed {
			r.failITT(uint16(i), core.StatusNodeFailure)
		}
	}
	if !r.deliverNodeCallbacks(failed, epoch) {
		return
	}
	cbs, _ := r.nodeCallbacks()
	for _, fn := range cbs {
		fn(failed)
	}
}

// flushLink completes every in-flight transaction issued before the
// link-failure epoch whose request or reply route crosses the failed link
// a↔b with StatusNodeFailure. Replies crossing a failed link are dropped
// by the fabric, so without this flush those transactions would hang
// forever; the requester treats an unreachable destination like a failed
// one (§5.1). The check is against the specific dead link, not the route's
// current health — packets dropped while the link was down stay dropped
// even if RestoreLink races ahead of this notification — while the epoch
// stamp protects the converse race: a transaction issued after the restore
// must not be killed by the stale notification. (With dimension-order
// routing the reply route can cross different links than the request
// route, hence both directions.)
func (r *RMC) flushLink(a, b core.NodeID, epoch uint64) {
	for i := range r.itt {
		//lint:ignore epochorder link epochs are the interconnect's plain event counter, not packed (term,epoch) authority words
		if !r.itt[i].active || r.itt[i].linkEpoch >= epoch {
			continue
		}
		dst := r.itt[i].node
		if r.ic.RouteCrosses(r.id, dst, a, b) || r.ic.RouteCrosses(r.id, dst, b, a) ||
			r.ic.RouteCrosses(dst, r.id, a, b) || r.ic.RouteCrosses(dst, r.id, b, a) {
			r.failITT(uint16(i), core.StatusNodeFailure)
		}
	}
	if !r.deliverCallbacks(a, b, epoch) {
		return
	}
	cbs, _ := r.linkCallbacks()
	for _, fn := range cbs {
		fn(a, b)
	}
}

// processReplies implements the RCP over one reply batch (Fig. 3b),
// recycling every packet and the batch itself back to the proto pool.
func (r *RMC) processReplies(rb *proto.Batch) {
	for _, pkt := range rb.Packets() {
		r.processReply(pkt)
		proto.FreePacket(pkt)
	}
	proto.FreeBatch(rb)
}

// processReply locates the ITT entry by tid, stores read/atomic payloads
// into the local buffer, and on the final line posts the CQ completion.
func (r *RMC) processReply(pkt *proto.Packet) {
	r.Stats.RepliesRecv.Add(1)
	idx := uint16(pkt.Tid) & 0xFFF
	gen := uint16(pkt.Tid) >> 12
	if int(idx) >= len(r.itt) {
		return
	}
	ent := &r.itt[idx]
	if !ent.active || ent.gen&0xF != gen {
		return // stale reply from a flushed transaction
	}
	if pkt.Status != core.StatusOK {
		if ent.status == core.StatusOK {
			ent.status = pkt.Status
		}
	} else if (ent.op == core.OpRead || ent.op.IsAtomic()) && ent.buf != nil && len(pkt.Payload) > 0 {
		off := int(ent.bufOff + uint64(pkt.LineIdx)*core.CacheLineSize)
		if err := ent.buf.WriteAt(off, pkt.Payload); err != nil && ent.status == core.StatusOK {
			ent.status = core.StatusBoundsError
		}
	}
	ent.remaining--
	if ent.remaining == 0 {
		qp, wqIdx, status := ent.qp, ent.wqIdx, ent.status
		ent.active = false
		r.ittFree = append(r.ittFree, idx)
		r.complete(qp, wqIdx, status)
	}
}

// complete posts a CQ entry and rings the QP's completion doorbell.
func (r *RMC) complete(qp *QPState, wqIdx uint32, status core.Status) {
	r.Stats.Completions.Add(1)
	if status != core.StatusOK {
		r.Stats.Errors.Add(1)
	}
	if !qp.CQ.Post(qpring.CQEntry{WQIndex: wqIdx, Status: status}) {
		// CQ is sized to the WQ, so this indicates a harness bug;
		// surface it loudly rather than dropping a completion.
		panic("emu: completion queue overflow")
	}
	qp.kickCQ()
}

// ---------------------------------------------------------------------------
// RRPP pipeline

func (r *RMC) runRRPP() {
	defer r.wg.Done()
	requests := r.ic.Requests(r.id)
	for {
		select {
		case b := <-requests:
			r.processRequests(b)
		case <-r.stopped:
			return
		}
	}
}

// processRequests implements the RRPP over one request batch (Fig. 3b):
// stateless handling of each line transaction using only the packet header
// and local CT state, always answering with exactly one reply per request.
// Replies toward the same requester are re-batched, so a k-line inbound
// batch produces one outbound reply batch, and every request packet is
// recycled to the proto pool once answered.
func (r *RMC) processRequests(b *proto.Batch) {
	var rb *proto.Batch
	for _, pkt := range b.Packets() {
		r.Stats.RequestsRecv.Add(1)
		reply := r.handle(pkt)
		proto.FreePacket(pkt)
		if rb != nil && !rb.Append(reply) {
			r.sendReplies(rb)
			rb = nil
		}
		if rb == nil {
			rb = proto.AllocBatch()
			rb.Append(reply)
		}
	}
	proto.FreeBatch(b)
	if rb != nil {
		r.sendReplies(rb)
	}
}

// sendReplies injects a reply batch. Injection may block on credits; the
// reply lane always drains because RCPs consume unconditionally. If the
// requester became unreachable the batch is dropped (its RMC flushes the
// transactions via the ITT).
func (r *RMC) sendReplies(rb *proto.Batch) {
	if err := r.send(rb, nil); err != nil {
		proto.FreeBatchPackets(rb)
	}
}

// handle processes one request packet and returns its pool-allocated reply.
func (r *RMC) handle(pkt *proto.Packet) *proto.Packet {
	rp := pkt.ReplyInto(proto.AllocPacket(), core.StatusOK)
	cs := r.Context(pkt.Ctx)
	if cs == nil {
		rp.Status = core.StatusNoContext
		return rp
	}
	n := uint64(pkt.Aux)
	if pkt.Op.IsWrite() {
		n = uint64(len(pkt.Payload))
	}
	if pkt.Op.IsAtomic() {
		n = 8
	}
	if n == 0 || n > core.CacheLineSize || !cs.AS.InBounds(pkt.Offset, n) {
		rp.Status = core.StatusBoundsError
		return rp
	}
	// Translate through the RMC TLB and the context's page table; with
	// linear mappings this cannot fail in bounds, but the walk is the
	// real control path (and the miss counter feeds the ablations).
	if _, walks, ok := cs.AS.Translate(r.tlb, pkt.Offset); !ok {
		rp.Status = core.StatusBoundsError
		return rp
	} else if walks > 0 {
		r.Stats.TLBMisses.Add(1)
	}

	switch pkt.Op {
	case core.OpRead:
		if err := cs.Seg.ReadAt(int(pkt.Offset), rp.AllocPayload(int(n))); err != nil {
			rp.Payload = nil
			rp.Status = core.StatusBoundsError
		}
		return rp
	case core.OpWrite, core.OpWriteNotify:
		if err := cs.Seg.WriteAt(int(pkt.Offset), pkt.Payload); err != nil {
			rp.Status = core.StatusBoundsError
			return rp
		}
		// The remote-interrupt extension (§8): the final line of a
		// write-with-notify raises the context's handler. Statelessly
		// tied to FlagLast — the request needs no destination-side
		// tracking.
		if pkt.Op == core.OpWriteNotify && pkt.IsLast() {
			if fn := cs.notify.Load(); fn != nil {
				(*fn)(pkt.Src, pkt.Offset-uint64(pkt.LineIdx)*core.CacheLineSize, int(pkt.Aux)+int(pkt.LineIdx)*core.CacheLineSize)
			}
		}
		return rp
	case core.OpFetchAdd:
		if len(pkt.Payload) < 8 {
			rp.Status = core.StatusBoundsError
			return rp
		}
		delta := binary.LittleEndian.Uint64(pkt.Payload)
		old, err := cs.Seg.FetchAdd64(int(pkt.Offset), delta)
		if err != nil {
			rp.Status = core.StatusBadAlign
			return rp
		}
		binary.LittleEndian.PutUint64(rp.AllocPayload(8), old)
		return rp
	case core.OpCompareSwap:
		if len(pkt.Payload) < 16 {
			rp.Status = core.StatusBoundsError
			return rp
		}
		expected := binary.LittleEndian.Uint64(pkt.Payload)
		newv := binary.LittleEndian.Uint64(pkt.Payload[8:])
		old, err := cs.Seg.CompareSwap64(int(pkt.Offset), expected, newv)
		if err != nil {
			rp.Status = core.StatusBadAlign
			return rp
		}
		binary.LittleEndian.PutUint64(rp.AllocPayload(8), old)
		return rp
	default:
		rp.Status = core.StatusBoundsError
		return rp
	}
}

// TLBHitRate exposes the RRPP translation hit rate.
func (r *RMC) TLBHitRate() float64 { return r.tlb.HitRate() }
