package fabric

import (
	"errors"
	"sync"
	"sync/atomic"

	"sonuma/internal/core"
	"sonuma/internal/proto"
)

// ErrDown reports a send toward (or from) a failed node or over a failed
// link. The RMC converts it into StatusNodeFailure completions and notifies
// the driver (§5.1: "the RMC notifies the driver of failures within the
// soNUMA fabric").
var ErrDown = errors.New("fabric: node or link down")

// ErrClosed reports use of an interconnect after Close.
var ErrClosed = errors.New("fabric: interconnect closed")

// ErrBackpressure reports that TrySend found the destination lane out of
// credits; the caller should drain its own inbound lanes and retry, which is
// how the RMC pipelines avoid request/reply deadlock.
var ErrBackpressure = errors.New("fabric: lane out of credits")

// DefaultCredits is the per-(destination, lane) buffering of the
// development-platform interconnect; it models link-level credit-based flow
// control (§6: "credit-based flow control"). One credit covers one batch of
// up to proto.MaxBatch line packets, so flow-control accounting is amortized
// over the batch. A sender blocks when the destination's lane is out of
// credits.
const DefaultCredits = 64

// Interconnect is the development platform's fabric: an in-process crossbar
// carrying proto.Batch frames between emulated nodes over two virtual
// lanes. Each destination has a pair of bounded shard queues (request and
// reply lanes); the bounded channels provide the credit semantics, and the
// separate lanes provide deadlock freedom, because reply traffic can always
// drain regardless of request backpressure. Batches amortize the per-send
// route validation, lane selection, and counter updates over up to
// proto.MaxBatch packets.
type Interconnect struct {
	n      int
	topo   Topology
	req    []chan *proto.Batch // per destination node
	rpl    []chan *proto.Batch
	down   []atomic.Bool
	closed atomic.Bool
	done   chan struct{}

	mu                  sync.Mutex
	linkDown            map[Link]bool
	linksDown           atomic.Int32 // len(linkDown), written under mu: routeUp's lock-free fast path
	watchers            []func(id core.NodeID, epoch uint64)
	restoreWatchers     []func(id core.NodeID, epoch uint64)
	linkWatchers        []func(a, b core.NodeID, epoch uint64)
	linkRestoreWatchers []func(a, b core.NodeID, epoch uint64)
	linkEpoch           atomic.Uint64 // bumped by every FailLink and RestoreLink
	nodeEpoch           atomic.Uint64 // bumped by every FailNode and RestoreNode

	// Counters for fabric statistics.
	ReqSent     atomic.Uint64 // request packets
	RplSent     atomic.Uint64 // reply packets
	BatchesSent atomic.Uint64 // fabric sends (credit charges)
	Bytes       atomic.Uint64
}

// NewInterconnect builds an interconnect for topo with the given per-lane
// credits (0 selects DefaultCredits).
func NewInterconnect(topo Topology, credits int) *Interconnect {
	if credits <= 0 {
		credits = DefaultCredits
	}
	n := topo.Nodes()
	ic := &Interconnect{
		n:        n,
		topo:     topo,
		req:      make([]chan *proto.Batch, n),
		rpl:      make([]chan *proto.Batch, n),
		down:     make([]atomic.Bool, n),
		done:     make(chan struct{}),
		linkDown: make(map[Link]bool),
	}
	for i := 0; i < n; i++ {
		ic.req[i] = make(chan *proto.Batch, credits)
		ic.rpl[i] = make(chan *proto.Batch, credits)
	}
	return ic
}

// Nodes reports the number of fabric endpoints.
func (ic *Interconnect) Nodes() int { return ic.n }

// Topology returns the fabric topology.
func (ic *Interconnect) Topology() Topology { return ic.topo }

// Done returns a channel closed when the interconnect shuts down (see the
// Transport contract: control-path waiters only).
func (ic *Interconnect) Done() <-chan struct{} { return ic.done }

// RouteCrosses reports whether the deterministic route src→dst traverses
// the directed link a→b. RMCs use it on link-failure notifications to
// flush exactly the transactions whose traffic crossed the dead link —
// independent of the link's CURRENT state, because a racing RestoreLink
// cannot resurrect replies that were already dropped while it was down.
func (ic *Interconnect) RouteCrosses(src, dst, a, b core.NodeID) bool {
	if int(src) >= ic.n || int(dst) >= ic.n {
		return false
	}
	for _, l := range ic.topo.Route(src, dst) {
		if l.From == a && l.To == b {
			return true
		}
	}
	return false
}

// routeUp verifies every link of the deterministic route is healthy. With
// no link down — every send of a healthy fabric — it takes no lock.
func (ic *Interconnect) routeUp(src, dst core.NodeID) bool {
	if ic.linksDown.Load() == 0 {
		return true
	}
	ic.mu.Lock()
	defer ic.mu.Unlock()
	for _, l := range ic.topo.Route(src, dst) {
		if ic.linkDown[l] {
			return false
		}
	}
	return true
}

// LaneFor validates the route for a batch with the given lane and endpoints
// and returns the destination shard queue without sending. Callers that
// must stay responsive while blocked on credits (the RMC's request
// pipelines) select on the returned lane together with their inbound work;
// they call Account after a successful direct send so fabric counters stay
// correct.
//
// Requests additionally validate the REPLY route: the protocol answers
// every request with exactly one reply over the reverse route, so under an
// asymmetric (one-way) link failure a request sent over the healthy
// direction is guaranteed to strand — its reply is dropped on the dead
// direction and nothing would ever complete the transaction. Failing the
// issue deterministically is the development platform's stand-in for the
// requester-side timeout real hardware would need.
func (ic *Interconnect) LaneFor(kind proto.Kind, src, dst core.NodeID) (chan<- *proto.Batch, error) {
	if ic.closed.Load() {
		return nil, ErrClosed
	}
	d := int(dst)
	if d < 0 || d >= ic.n || int(src) < 0 || int(src) >= ic.n {
		return nil, ErrDown
	}
	if ic.down[d].Load() || ic.down[src].Load() || !ic.routeUp(src, dst) {
		return nil, ErrDown
	}
	if kind == proto.KindReply {
		return ic.rpl[d], nil
	}
	if !ic.routeUp(dst, src) {
		return nil, ErrDown
	}
	return ic.req[d], nil
}

// Account records a batch sent directly into a lane from LaneFor, given
// its pre-send statistics. Callers must capture kind, packet count, and
// wire size BEFORE handing the batch to the lane: a delivered batch is
// owned (and may already be recycled) by the receiver.
func (ic *Interconnect) Account(kind proto.Kind, packets, wireBytes int) {
	if kind == proto.KindReply {
		ic.RplSent.Add(uint64(packets))
	} else {
		ic.ReqSent.Add(uint64(packets))
	}
	ic.BatchesSent.Add(1)
	ic.Bytes.Add(uint64(wireBytes))
}

// SendBatch injects a batch toward its destination on the lane selected by
// its kind, charging a single credit for the whole batch. It blocks while
// the destination lane is out of credits and fails fast if the destination
// (or any link on the route) is down or the fabric closed. On success the
// receiver owns the batch; on failure ownership stays with the caller.
//
// With a credit free the send touches the lane alone; only a sender that is
// out of credits, and about to park anyway, waits on the fabric-wide done.
func (ic *Interconnect) SendBatch(b *proto.Batch) error {
	kind, packets, wire := b.Kind(), b.Len(), b.WireSize()
	lane, err := ic.LaneFor(kind, b.Src(), b.Dst())
	if err != nil {
		return err
	}
	select {
	case lane <- b:
	default:
		select {
		case lane <- b:
		case <-ic.done:
			return ErrClosed
		}
	}
	ic.Account(kind, packets, wire)
	return nil
}

// TrySendBatch is SendBatch without blocking: if the destination lane has
// no free credit it returns ErrBackpressure immediately.
func (ic *Interconnect) TrySendBatch(b *proto.Batch) error {
	kind, packets, wire := b.Kind(), b.Len(), b.WireSize()
	lane, err := ic.LaneFor(kind, b.Src(), b.Dst())
	if err != nil {
		return err
	}
	select {
	case lane <- b:
		ic.Account(kind, packets, wire)
		return nil
	default:
		return ErrBackpressure
	}
}

// Send injects a single packet as a one-packet batch. Convenience wrapper
// for control-path and test traffic; the RMC data path builds multi-packet
// batches instead.
func (ic *Interconnect) Send(pkt *proto.Packet) error {
	b := proto.AllocBatch()
	b.Append(pkt)
	if err := ic.SendBatch(b); err != nil {
		proto.FreeBatch(b)
		return err
	}
	return nil
}

// TrySend is Send without blocking.
func (ic *Interconnect) TrySend(pkt *proto.Packet) error {
	b := proto.AllocBatch()
	b.Append(pkt)
	if err := ic.TrySendBatch(b); err != nil {
		proto.FreeBatch(b)
		return err
	}
	return nil
}

// Requests returns node's inbound request lane (consumed by its RRPP). The
// consumer owns received batches and their packets.
func (ic *Interconnect) Requests(node core.NodeID) <-chan *proto.Batch {
	return ic.req[node]
}

// Replies returns node's inbound reply lane (consumed by its RCP).
func (ic *Interconnect) Replies(node core.NodeID) <-chan *proto.Batch {
	return ic.rpl[node]
}

// Watch registers a callback invoked (asynchronously, once per failure)
// when a node fails; the RMC uses it to flush in-flight transactions
// targeting the failed node with StatusNodeFailure. Node fail and restore
// events share one epoch counter, bumped under the state flip, so a
// racing FailNode/RestoreNode pair can always be ordered by comparing
// epochs even when the asynchronous notifications arrive out of order.
func (ic *Interconnect) Watch(fn func(id core.NodeID, epoch uint64)) {
	ic.mu.Lock()
	ic.watchers = append(ic.watchers, fn)
	ic.mu.Unlock()
}

// WatchRestore registers a callback invoked (asynchronously) when a
// previously failed node is restored with RestoreNode. Symmetric to Watch
// and stamped from the same node-event epoch counter; services use it to
// begin re-admitting the peer (typically after an anti-entropy repair
// pass).
func (ic *Interconnect) WatchRestore(fn func(id core.NodeID, epoch uint64)) {
	ic.mu.Lock()
	ic.restoreWatchers = append(ic.restoreWatchers, fn)
	ic.mu.Unlock()
}

// WatchLink registers a callback invoked (asynchronously) when a link
// fails; the RMC uses it to flush in-flight transactions whose route became
// unreachable, since replies crossing the dead link are dropped. The epoch
// identifies the failure: transactions issued at or after it (see
// LinkEpoch) were not affected by this particular failure.
func (ic *Interconnect) WatchLink(fn func(a, b core.NodeID, epoch uint64)) {
	ic.mu.Lock()
	ic.linkWatchers = append(ic.linkWatchers, fn)
	ic.mu.Unlock()
}

// WatchLinkRestore registers a callback invoked (asynchronously) when a
// link is restored with RestoreLink — the symmetric half of WatchLink.
// Fail and restore events share one epoch counter, bumped under the same
// lock that flips the link state, so a racing Fail/Restore pair can always
// be ordered by comparing epochs even when the asynchronous notifications
// arrive out of order.
func (ic *Interconnect) WatchLinkRestore(fn func(a, b core.NodeID, epoch uint64)) {
	ic.mu.Lock()
	ic.linkRestoreWatchers = append(ic.linkRestoreWatchers, fn)
	ic.mu.Unlock()
}

// LinkEpoch reports the current link-event epoch (bumped by every FailLink
// and RestoreLink). RMCs stamp each transaction with it at issue time so an
// asynchronously delivered failure notification can distinguish
// transactions issued before the failure (whose replies may have been
// dropped) from ones issued after a racing RestoreLink (which must not be
// flushed).
func (ic *Interconnect) LinkEpoch() uint64 { return ic.linkEpoch.Load() }

// FailNode marks a node down. In-flight packets to it are dropped (the
// channel is drained), and watchers are notified.
func (ic *Interconnect) FailNode(id core.NodeID) {
	if int(id) >= ic.n {
		return
	}
	ic.mu.Lock()
	if ic.down[id].Swap(true) {
		ic.mu.Unlock()
		return
	}
	epoch := ic.nodeEpoch.Add(1)
	ws := append([]func(core.NodeID, uint64){}, ic.watchers...)
	ic.mu.Unlock()
	// Drain pending traffic so no reply is ever generated, matching a
	// node that lost power: requests in its queues vanish.
	ic.drain(ic.req[int(id)])
	ic.drain(ic.rpl[int(id)])
	for _, w := range ws {
		go w(id, epoch)
	}
}

func (ic *Interconnect) drain(ch chan *proto.Batch) {
	for {
		select {
		case b := <-ch:
			proto.FreeBatchPackets(b)
		default:
			return
		}
	}
}

// RestoreNode brings a previously failed node back onto the fabric. Its
// queues start empty (FailNode drained them) and restore watchers are
// notified; state the node held before the failure is the application's
// problem — the fabric only restores connectivity.
func (ic *Interconnect) RestoreNode(id core.NodeID) {
	if int(id) >= ic.n {
		return
	}
	ic.mu.Lock()
	if !ic.down[id].Swap(false) {
		ic.mu.Unlock()
		return
	}
	epoch := ic.nodeEpoch.Add(1)
	ws := append([]func(core.NodeID, uint64){}, ic.restoreWatchers...)
	ic.mu.Unlock()
	for _, w := range ws {
		go w(id, epoch)
	}
}

// NodeDown reports whether id has been failed.
func (ic *Interconnect) NodeDown(id core.NodeID) bool {
	return int(id) < ic.n && ic.down[id].Load()
}

// Reachable reports whether src and dst can currently complete
// request/reply traffic: fabric open, both endpoints up, and every link of
// BOTH deterministic routes healthy — an asymmetric cut leaves the pair
// unable to complete any transaction even though one direction still
// carries packets. Software spin loops that wait on destination-side
// progress (messenger credits, staging acknowledgements) use it to bail
// out when the peer falls off the fabric instead of spinning forever.
func (ic *Interconnect) Reachable(src, dst core.NodeID) bool {
	if ic.closed.Load() {
		return false
	}
	if int(src) < 0 || int(src) >= ic.n || int(dst) < 0 || int(dst) >= ic.n {
		return false
	}
	return !ic.down[src].Load() && !ic.down[dst].Load() &&
		ic.routeUp(src, dst) && ic.routeUp(dst, src)
}

// FailLink marks the directed link a→b (and b→a) down. Routes crossing it
// fail with ErrDown; with crossbar topology that isolates exactly the pair.
// Link watchers are notified so RMCs can flush transactions whose replies
// would have crossed the link.
func (ic *Interconnect) FailLink(a, b core.NodeID) {
	ic.mu.Lock()
	ic.linkDown[Link{From: a, To: b}] = true
	ic.linkDown[Link{From: b, To: a}] = true
	ic.linksDown.Store(int32(len(ic.linkDown)))
	// The epoch bump is ordered after the link goes down: a transaction
	// stamped with the new epoch either fails its send against the dead
	// link or was issued after a restore.
	epoch := ic.linkEpoch.Add(1)
	ws := append([]func(core.NodeID, core.NodeID, uint64){}, ic.linkWatchers...)
	ic.mu.Unlock()
	for _, w := range ws {
		go w(a, b, epoch)
	}
}

// FailLinkDirected marks only the directed link a→b down, leaving b→a
// healthy — the asymmetric-partition case, where a can no longer push
// traffic toward b but traffic (and blind one-sided effects) still flows
// the other way. Requests crossing the dead direction vanish; so do
// replies, which means a request that LANDS over the healthy direction
// can still complete at the destination while its acknowledgement is
// lost — exactly the partial-effect behaviour a real one-way partition
// produces. Link watchers are notified as for FailLink; RestoreLink
// clears both directions.
func (ic *Interconnect) FailLinkDirected(a, b core.NodeID) {
	ic.mu.Lock()
	ic.linkDown[Link{From: a, To: b}] = true
	ic.linksDown.Store(int32(len(ic.linkDown)))
	epoch := ic.linkEpoch.Add(1)
	ws := append([]func(core.NodeID, core.NodeID, uint64){}, ic.linkWatchers...)
	ic.mu.Unlock()
	for _, w := range ws {
		go w(a, b, epoch)
	}
}

// RestoreLink brings a previously failed link back up. Like FailLink it
// bumps the shared link epoch after flipping the state and notifies the
// link-restore watchers with that epoch, so downstream consumers can order
// a racing Fail/Restore pair correctly. Restoring a link that was never
// failed is a no-op.
func (ic *Interconnect) RestoreLink(a, b core.NodeID) {
	ic.mu.Lock()
	if !ic.linkDown[Link{From: a, To: b}] && !ic.linkDown[Link{From: b, To: a}] {
		ic.mu.Unlock()
		return
	}
	delete(ic.linkDown, Link{From: a, To: b})
	delete(ic.linkDown, Link{From: b, To: a})
	ic.linksDown.Store(int32(len(ic.linkDown)))
	epoch := ic.linkEpoch.Add(1)
	ws := append([]func(core.NodeID, core.NodeID, uint64){}, ic.linkRestoreWatchers...)
	ic.mu.Unlock()
	for _, w := range ws {
		go w(a, b, epoch)
	}
}

// Close shuts the fabric down, releasing blocked senders and signalling
// Done, then returns the batches still queued in the lanes to the proto
// pool, so a process that boots clusters repeatedly does not strand
// packets. (A send already past LaneFor's closed check can still land
// afterwards: at most one batch per sender, left to the GC.)
func (ic *Interconnect) Close() {
	if ic.closed.Swap(true) {
		return
	}
	close(ic.done)
	for i := range ic.req {
		ic.drain(ic.req[i])
		ic.drain(ic.rpl[i])
	}
}
