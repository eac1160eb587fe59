package fabric

import (
	"sonuma/internal/core"
	"sonuma/internal/proto"
)

// Transport is the fabric surface the RMC pipelines and the cluster fault
// API are built against: batch lanes with credit-based flow control, the
// health watchers, and the fault-injection hooks. Two implementations
// exist:
//
//   - Interconnect: the in-process crossbar — per-destination bounded
//     channels, everything in one address space. Fault injection flips
//     flags; memory survives every "crash".
//   - ProcFabric: the multi-process transport — each node's lanes cross a
//     real OS boundary as length-prefixed, CRC-checked frames over unix
//     sockets between sonuma-node daemons (proc.go). Fault injection cuts
//     sockets, and a crashed peer genuinely loses its memory.
//
// The contract both must honour:
//
//   - LaneFor returns a send channel only if the route is currently
//     healthy; requests additionally validate the reply route, so an
//     asymmetric cut fails the issue deterministically instead of
//     stranding the transaction.
//   - One credit is charged per batch; reply lanes always drain, so the
//     two virtual lanes stay deadlock-free.
//   - Fail/restore events for nodes and links are epoch-stamped under the
//     state flip, so consumers can order racing notifications, and are
//     delivered asynchronously to every registered watcher.
//   - Requests/Replies may only be consumed for nodes the transport hosts
//     locally (every node, for the Interconnect).
//   - Done() is for control-path waiters only: goroutines that park for an
//     unbounded time anyway (a sender out of credits, a health-event
//     forwarder, the RMC's one shutdown watcher). It is one channel for the
//     whole fabric, and a select locks every channel it lists, so Done() in
//     a select on the per-operation path serialises every node of the
//     process on one runtime mutex. Per-operation waits use channels owned
//     by one RMC (its lanes, doorbells and stop channel); the RMC forwards
//     Done() into those.
type Transport interface {
	// Nodes reports the number of fabric endpoints.
	Nodes() int
	// Topology returns the fabric topology.
	Topology() Topology
	// Done returns a channel closed when the transport shuts down
	// (control-path waiters only, see above).
	Done() <-chan struct{}
	// RouteCrosses reports whether the deterministic route src→dst
	// traverses the directed link a→b (independent of link health).
	RouteCrosses(src, dst, a, b core.NodeID) bool

	// LaneFor validates the route and returns the destination lane for a
	// direct send; Account records the statistics of such a send.
	LaneFor(kind proto.Kind, src, dst core.NodeID) (chan<- *proto.Batch, error)
	Account(kind proto.Kind, packets, wireBytes int)
	// SendBatch / TrySendBatch inject a batch, blocking (or not) on
	// credits. On success the receiver owns the batch.
	SendBatch(b *proto.Batch) error
	TrySendBatch(b *proto.Batch) error
	// Send / TrySend wrap a single packet as a one-packet batch.
	Send(pkt *proto.Packet) error
	TrySend(pkt *proto.Packet) error
	// Requests / Replies return a locally hosted node's inbound lanes.
	Requests(node core.NodeID) <-chan *proto.Batch
	Replies(node core.NodeID) <-chan *proto.Batch

	// Watch* register asynchronous health watchers; LinkEpoch reports the
	// current link-event epoch for issue-time stamping.
	Watch(fn func(id core.NodeID, epoch uint64))
	WatchRestore(fn func(id core.NodeID, epoch uint64))
	WatchLink(fn func(a, b core.NodeID, epoch uint64))
	WatchLinkRestore(fn func(a, b core.NodeID, epoch uint64))
	LinkEpoch() uint64

	// Fault injection and health queries.
	FailNode(id core.NodeID)
	RestoreNode(id core.NodeID)
	NodeDown(id core.NodeID) bool
	FailLink(a, b core.NodeID)
	FailLinkDirected(a, b core.NodeID)
	RestoreLink(a, b core.NodeID)
	Reachable(src, dst core.NodeID) bool

	// Close shuts the transport down, releasing blocked senders.
	Close()
}

var _ Transport = (*Interconnect)(nil)
