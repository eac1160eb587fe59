package sonuma

import (
	"fmt"

	"sonuma/internal/core"
	"sonuma/internal/emu"
	"sonuma/internal/fabric"
	"sonuma/internal/proto"
)

// MaxBatchSize is the largest number of line transactions one fabric send
// carries; Config.BatchSize is clamped to [1, MaxBatchSize].
const MaxBatchSize = proto.MaxBatch

// TopologyKind selects the fabric topology of a cluster. The protocol layer
// is topology-agnostic (§3); the development platform emulates a full
// crossbar like the paper's, and tori are available for routing-sensitive
// experiments.
type TopologyKind int

const (
	// TopologyCrossbar is a full crossbar (the paper's simulated
	// configuration, §7.1).
	TopologyCrossbar TopologyKind = iota
	// TopologyTorus2D arranges nodes in a near-square 2D torus with
	// dimension-order routing.
	TopologyTorus2D
	// TopologyTorus3D arranges nodes in a near-cubic 3D torus.
	TopologyTorus3D
)

// Config configures a Cluster. The zero value of every field selects a
// sensible default; only Nodes is required.
type Config struct {
	// Nodes is the number of soNUMA nodes on the fabric (required).
	Nodes int
	// Topology selects the fabric topology (default crossbar).
	Topology TopologyKind
	// LinkCredits is the per-destination, per-virtual-lane credit count
	// of the fabric's flow control (default 64). One credit covers one
	// batch of up to BatchSize line packets.
	LinkCredits int
	// ITTEntries bounds in-flight WQ requests per node (default 1024,
	// max 4096).
	ITTEntries int
	// TLBEntries sizes each RMC's TLB (default 32, as in Table 1).
	TLBEntries int
	// PageSize is the context-segment page size (default 8 KB).
	PageSize int
	// BatchSize is the number of line transactions each RMC packs into
	// one fabric send (default MaxBatchSize, clamped to
	// [1, MaxBatchSize]). 1 selects the per-packet data path, kept for
	// ablation benchmarks.
	BatchSize int
}

// EffectiveBatchSize reports the batch size a cluster built with this
// configuration uses: BatchSize with the default and [1, MaxBatchSize]
// clamp applied. The benchmark harness records it next to measured
// results.
func (c Config) EffectiveBatchSize() int {
	if c.BatchSize <= 0 || c.BatchSize > MaxBatchSize {
		return MaxBatchSize
	}
	return c.BatchSize
}

// Cluster is an emulated soNUMA machine: Nodes() nodes, each with its own
// RMC, connected by a memory fabric. All nodes live in the calling process;
// the development platform's goal — like the paper's (§7.1, §8 "Lessons
// learned") — is running the full software stack at wall-clock speed.
type Cluster struct {
	cfg   Config
	ic    fabric.Transport
	nodes []*Node
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sonuma: Config.Nodes must be positive, got %d", cfg.Nodes)
	}
	if cfg.Nodes > 1<<12 {
		return nil, fmt.Errorf("sonuma: Config.Nodes %d exceeds fabric limit %d", cfg.Nodes, 1<<12)
	}
	var topo fabric.Topology
	switch cfg.Topology {
	case TopologyCrossbar:
		topo = fabric.NewCrossbar(cfg.Nodes)
	case TopologyTorus2D:
		w, h := rectangle(cfg.Nodes)
		topo = fabric.NewTorus2D(w, h)
	case TopologyTorus3D:
		x, y, z := box(cfg.Nodes)
		topo = fabric.NewTorus3D(x, y, z)
	default:
		return nil, fmt.Errorf("sonuma: unknown topology %d", cfg.Topology)
	}
	if topo.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("sonuma: %d nodes do not tile a %s", cfg.Nodes, topo.Name())
	}
	ic := fabric.NewInterconnect(topo, cfg.LinkCredits)
	c := &Cluster{cfg: cfg, ic: ic, nodes: make([]*Node, cfg.Nodes)}
	rcfg := emu.Config{
		ITTEntries: cfg.ITTEntries,
		TLBEntries: cfg.TLBEntries,
		PageSize:   cfg.PageSize,
		// Resolved here so EffectiveBatchSize is authoritative for
		// clusters built through the public API.
		BatchSize: cfg.EffectiveBatchSize(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes[i] = &Node{
			cluster: c,
			id:      core.NodeID(i),
			rmc:     emu.NewRMC(core.NodeID(i), ic, rcfg),
		}
	}
	return c, nil
}

// NewClusterWithTransport builds a cluster view over an externally
// constructed transport, hosting RMCs only for the listed local nodes —
// the multi-process mode, where each sonuma-node daemon (and the parent
// driving clients) hosts a subset of the fabric's endpoints. Node(i)
// returns nil for non-hosted nodes. The caller owns the transport's
// lifetime up to Close, which closes it along with the local RMCs.
func NewClusterWithTransport(cfg Config, tr fabric.Transport, local []int) (*Cluster, error) {
	n := tr.Nodes()
	if cfg.Nodes != 0 && cfg.Nodes != n {
		return nil, fmt.Errorf("sonuma: Config.Nodes %d does not match transport size %d", cfg.Nodes, n)
	}
	cfg.Nodes = n
	c := &Cluster{cfg: cfg, ic: tr, nodes: make([]*Node, n)}
	rcfg := emu.Config{
		ITTEntries: cfg.ITTEntries,
		TLBEntries: cfg.TLBEntries,
		PageSize:   cfg.PageSize,
		BatchSize:  cfg.EffectiveBatchSize(),
	}
	for _, i := range local {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("sonuma: local node %d out of range [0,%d)", i, n)
		}
		if c.nodes[i] != nil {
			return nil, fmt.Errorf("sonuma: local node %d listed twice", i)
		}
		c.nodes[i] = &Node{
			cluster: c,
			id:      core.NodeID(i),
			rmc:     emu.NewRMC(core.NodeID(i), tr, rcfg),
		}
	}
	return c, nil
}

// rectangle factors n into the most square w×h grid.
func rectangle(n int) (w, h int) {
	w = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return n / w, w
}

// box factors n into the most cubic x×y×z grid.
func box(n int) (x, y, z int) {
	best := [3]int{n, 1, 1}
	bestSpread := n
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			if spread := c - a; spread < bestSpread {
				bestSpread = spread
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// Nodes reports the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns the i-th node, or nil if this process does not host it
// (multi-process clusters host a subset; see NewClusterWithTransport).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// FailNode injects a node failure: the node stops answering, in-flight
// operations targeting it complete with a node-failure error, and every
// RMC's driver failure callback fires (§5.1).
func (c *Cluster) FailNode(i int) { c.ic.FailNode(core.NodeID(i)) }

// RestoreNode brings a previously failed node back onto the fabric and
// fires every RMC's driver restore callback. The fabric restores only
// connectivity; whatever state the node missed while down is the
// application's problem (services run anti-entropy repair before
// re-admitting it — see internal/kvs).
func (c *Cluster) RestoreNode(i int) { c.ic.RestoreNode(core.NodeID(i)) }

// FailLink injects a bidirectional link failure between nodes a and b.
func (c *Cluster) FailLink(a, b int) { c.ic.FailLink(core.NodeID(a), core.NodeID(b)) }

// FailLinkDirected injects a one-way link failure: traffic a→b is dropped
// while b→a keeps flowing — the asymmetric-partition case where a node can
// be written to but cannot answer (or renew leases). RestoreLink repairs
// both directions.
func (c *Cluster) FailLinkDirected(a, b int) {
	c.ic.FailLinkDirected(core.NodeID(a), core.NodeID(b))
}

// RestoreLink repairs a previously failed link and fires every RMC's
// driver link-restore callback.
func (c *Cluster) RestoreLink(a, b int) { c.ic.RestoreLink(core.NodeID(a), core.NodeID(b)) }

// Reachable reports whether the fabric can currently carry traffic from
// node a to node b: both endpoints up and every link of the deterministic
// route healthy. Services consult it before re-admitting a peer, because a
// single link-restore event does not imply the whole route is back.
func (c *Cluster) Reachable(a, b int) bool {
	return c.ic.Reachable(core.NodeID(a), core.NodeID(b))
}

// Transport exposes the underlying fabric transport for instrumentation.
func (c *Cluster) Transport() fabric.Transport { return c.ic }

// Close shuts the fabric and all locally hosted RMC pipelines down.
// Outstanding operations are abandoned — every goroutine blocked in a QP
// call returns ErrClusterClosed — and Close blocks until all pipeline
// goroutines exit. Closing the transport stops every RMC at once (each
// forwards the transport's Done into its own stop path), so a pipeline
// stalled in a handler delays Close itself but not the release of callers
// on the other nodes.
func (c *Cluster) Close() {
	c.ic.Close()
	for _, n := range c.nodes {
		if n != nil {
			n.rmc.Close()
		}
	}
}

// Node is one soNUMA node: a processor with local memory and an RMC
// integrated into its (emulated) coherence hierarchy.
type Node struct {
	cluster *Cluster
	id      core.NodeID
	rmc     *emu.RMC
}

// ID reports the node's fabric address.
func (n *Node) ID() int { return int(n.id) }

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cluster }

// OpenContext joins the global address space identified by ctxID — the
// driver path of §5.1 (open /dev/rmc_contexts/<ctx_id>, then register the
// context segment) — contributing segmentSize bytes of local memory as this
// node's partition.
func (n *Node) OpenContext(ctxID int, segmentSize int) (*Context, error) {
	if ctxID < 0 || ctxID > int(^core.CtxID(0)) {
		return nil, fmt.Errorf("sonuma: context id %d out of range", ctxID)
	}
	cs, err := n.rmc.OpenContext(core.CtxID(ctxID), segmentSize)
	if err != nil {
		return nil, err
	}
	return &Context{node: n, cs: cs}, nil
}

// OnFabricFailure registers a driver callback invoked when the fabric
// reports a failed node. Callbacks accumulate — a service (like the kvs
// store) and the application can each register one, and all of them run in
// registration order. The callback runs on an RMC pipeline goroutine and
// must not block.
func (n *Node) OnFabricFailure(fn func(failedNode int)) {
	n.rmc.OnFailure(func(id core.NodeID) { fn(int(id)) })
}

// OnLinkFailure registers a driver callback invoked when the fabric reports
// a failed link a↔b, after this node's RMC has flushed the in-flight
// operations the dead link stranded. Every node observes every link failure;
// services that care only about their own reachability filter on the
// endpoints. Like OnFabricFailure, callbacks accumulate and all run. The
// callback runs on an RMC pipeline goroutine and must not block; forward
// into a channel for real work.
func (n *Node) OnLinkFailure(fn func(a, b int)) {
	n.rmc.OnLinkFailure(func(a, b core.NodeID) { fn(int(a), int(b)) })
}

// OnFabricRestore registers a driver callback invoked when the fabric
// reports a previously failed node restored — the symmetric half of
// OnFabricFailure. The fabric guarantees connectivity only; services
// re-sync whatever state the node missed before re-admitting it. The
// callback runs on an RMC pipeline goroutine and must not block.
func (n *Node) OnFabricRestore(fn func(restoredNode int)) {
	n.rmc.OnRestore(func(id core.NodeID) { fn(int(id)) })
}

// OnLinkRestore registers a driver callback invoked when the fabric
// reports a restored link a↔b — the symmetric half of OnLinkFailure.
// Every node observes every link restore. Failure and restore events for
// one link are epoch-stamped by the fabric and delivered to callbacks in
// epoch order, so a racing Fail/Restore pair cannot leave a service
// believing the stale state. The callback runs on an RMC pipeline
// goroutine and must not block; forward into a channel for real work.
func (n *Node) OnLinkRestore(fn func(a, b int)) {
	n.rmc.OnLinkRestore(func(a, b core.NodeID) { fn(int(a), int(b)) })
}

// RMCStats snapshots the node's RMC counters.
func (n *Node) RMCStats() RMCStats {
	s := &n.rmc.Stats
	return RMCStats{
		WQConsumed:   s.WQConsumed.Load(),
		LinesSent:    s.LinesSent.Load(),
		BatchesSent:  s.BatchesSent.Load(),
		RepliesRecv:  s.RepliesRecv.Load(),
		RequestsRecv: s.RequestsRecv.Load(),
		Completions:  s.Completions.Load(),
		Errors:       s.Errors.Load(),
		TLBMisses:    s.TLBMisses.Load(),
	}
}

// RMCStats are point-in-time RMC pipeline counters.
type RMCStats struct {
	WQConsumed   uint64 // WQ entries accepted by the request generation pipeline
	LinesSent    uint64 // line-sized request packets injected into the fabric
	BatchesSent  uint64 // request batches flushed into the fabric
	RepliesRecv  uint64 // replies processed by the request completion pipeline
	RequestsRecv uint64 // requests processed by the remote request processing pipeline
	Completions  uint64 // CQ entries posted
	Errors       uint64 // completions with non-OK status
	TLBMisses    uint64 // RRPP translations that walked the page table
}
