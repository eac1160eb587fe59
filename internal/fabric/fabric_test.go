package fabric

import (
	"testing"
	"testing/quick"
	"time"

	"sonuma/internal/core"
	"sonuma/internal/proto"
)

func topologies() []Topology {
	return []Topology{
		NewCrossbar(16),
		NewTorus2D(4, 4),
		NewTorus2D(5, 3),
		NewTorus3D(2, 3, 4),
		NewTorus3D(4, 4, 4),
	}
}

// TestRouteValidity checks, for every pair in every topology, that the
// deterministic route is connected (consecutive links chain), starts at
// src, ends at dst, and matches Hops.
func TestRouteValidity(t *testing.T) {
	for _, topo := range topologies() {
		n := topo.Nodes()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				src, dst := core.NodeID(s), core.NodeID(d)
				route := topo.Route(src, dst)
				if s == d {
					if len(route) != 0 {
						t.Fatalf("%s: self route not empty", topo.Name())
					}
					continue
				}
				if len(route) == 0 {
					t.Fatalf("%s: no route %d->%d", topo.Name(), s, d)
				}
				if route[0].From != src || route[len(route)-1].To != dst {
					t.Fatalf("%s: route %d->%d endpoints wrong: %v", topo.Name(), s, d, route)
				}
				for i := 1; i < len(route); i++ {
					if route[i].From != route[i-1].To {
						t.Fatalf("%s: route %d->%d disconnected at %d", topo.Name(), s, d, i)
					}
				}
				if topo.Hops(src, dst) != len(route) {
					t.Fatalf("%s: Hops(%d,%d)=%d but route has %d links",
						topo.Name(), s, d, topo.Hops(src, dst), len(route))
				}
				if len(route) > topo.Diameter() {
					t.Fatalf("%s: route %d->%d length %d exceeds diameter %d",
						topo.Name(), s, d, len(route), topo.Diameter())
				}
			}
		}
	}
}

func TestCrossbarSingleHop(t *testing.T) {
	c := NewCrossbar(8)
	if c.Hops(0, 7) != 1 || c.Diameter() != 1 {
		t.Fatal("crossbar is not single-hop")
	}
}

func TestTorusShortestDirection(t *testing.T) {
	tor := NewTorus2D(8, 1)
	// 0 -> 6 should wrap (2 hops), not walk forward (6 hops).
	if h := tor.Hops(0, 6); h != 2 {
		t.Fatalf("ring 0->6 hops = %d, want 2 (wrap)", h)
	}
}

// Property: hop distance is symmetric and satisfies the triangle inequality
// on tori (dimension-order routes realize ring distances).
func TestPropertyTorusMetric(t *testing.T) {
	tor := NewTorus3D(4, 3, 2)
	n := tor.Nodes()
	f := func(a, b, c uint8) bool {
		x, y, z := core.NodeID(int(a)%n), core.NodeID(int(b)%n), core.NodeID(int(c)%n)
		if tor.Hops(x, y) != tor.Hops(y, x) {
			return false
		}
		return tor.Hops(x, z) <= tor.Hops(x, y)+tor.Hops(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func mkPkt(src, dst int, kind proto.Kind) *proto.Packet {
	return &proto.Packet{Kind: kind, Op: core.OpRead, Src: core.NodeID(src), Dst: core.NodeID(dst), Aux: 64}
}

func TestInterconnectDelivery(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(4), 8)
	defer ic.Close()
	if err := ic.Send(mkPkt(0, 2, proto.KindRequest)); err != nil {
		t.Fatal(err)
	}
	if err := ic.Send(mkPkt(1, 2, proto.KindReply)); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-ic.Requests(2):
		if b.Len() != 1 || b.Src() != 0 {
			t.Fatalf("request batch len=%d src=%d", b.Len(), b.Src())
		}
	default:
		t.Fatal("request not delivered")
	}
	select {
	case b := <-ic.Replies(2):
		if b.Len() != 1 || b.Src() != 1 {
			t.Fatalf("reply batch len=%d src=%d", b.Len(), b.Src())
		}
	default:
		t.Fatal("reply not delivered")
	}
	if ic.ReqSent.Load() != 1 || ic.RplSent.Load() != 1 {
		t.Fatal("counters wrong")
	}
	if ic.BatchesSent.Load() != 2 {
		t.Fatalf("BatchesSent = %d, want 2", ic.BatchesSent.Load())
	}
}

// mkBatch packs n single-line read requests for the same route into one
// batch.
func mkBatch(src, dst, n int) *proto.Batch {
	b := proto.AllocBatch()
	for i := 0; i < n; i++ {
		if !b.Append(mkPkt(src, dst, proto.KindRequest)) {
			panic("mkBatch: append failed")
		}
	}
	return b
}

// TestBatchAmortizesCredits checks that a batch of MaxBatch packets charges
// one credit, while the same packets sent individually charge one each.
func TestBatchAmortizesCredits(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(2), 1)
	defer ic.Close()
	if err := ic.TrySendBatch(mkBatch(0, 1, proto.MaxBatch)); err != nil {
		t.Fatalf("full batch on one credit: %v", err)
	}
	if err := ic.TrySendBatch(mkBatch(0, 1, 1)); err != ErrBackpressure {
		t.Fatalf("second batch should be out of credits, got %v", err)
	}
	b := <-ic.Requests(1)
	if b.Len() != proto.MaxBatch {
		t.Fatalf("batch len %d, want %d", b.Len(), proto.MaxBatch)
	}
	if got := ic.ReqSent.Load(); got != proto.MaxBatch {
		t.Fatalf("ReqSent = %d, want %d (per-packet counting)", got, proto.MaxBatch)
	}
	if got := ic.BatchesSent.Load(); got != 1 {
		t.Fatalf("BatchesSent = %d, want 1 (per-batch credit)", got)
	}
}

// TestBatchRouteMismatchRejected checks Append refuses to mix routes/lanes.
func TestBatchRouteMismatchRejected(t *testing.T) {
	b := proto.AllocBatch()
	defer proto.FreeBatch(b)
	if !b.Append(mkPkt(0, 1, proto.KindRequest)) {
		t.Fatal("first append failed")
	}
	if b.Append(mkPkt(0, 2, proto.KindRequest)) {
		t.Fatal("append accepted a different destination")
	}
	if b.Append(mkPkt(1, 1, proto.KindRequest)) {
		t.Fatal("append accepted a different source")
	}
	if b.Append(mkPkt(0, 1, proto.KindReply)) {
		t.Fatal("append accepted a different lane")
	}
	if b.Len() != 1 {
		t.Fatalf("batch len %d after rejected appends, want 1", b.Len())
	}
}

func TestVirtualLanesAreIndependent(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(2), 2)
	defer ic.Close()
	// Fill the request lane to node 1.
	for i := 0; i < 2; i++ {
		if err := ic.TrySend(mkPkt(0, 1, proto.KindRequest)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ic.TrySend(mkPkt(0, 1, proto.KindRequest)); err != ErrBackpressure {
		t.Fatalf("request lane should be out of credits, got %v", err)
	}
	// The reply lane must still accept traffic (deadlock freedom, §6).
	if err := ic.TrySend(mkPkt(0, 1, proto.KindReply)); err != nil {
		t.Fatalf("reply lane blocked by request lane: %v", err)
	}
}

func TestSendBlocksUntilCredit(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(2), 1)
	defer ic.Close()
	if err := ic.Send(mkPkt(0, 1, proto.KindRequest)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ic.Send(mkPkt(0, 1, proto.KindRequest)) }()
	select {
	case <-done:
		t.Fatal("send completed without credit")
	case <-time.After(20 * time.Millisecond):
	}
	<-ic.Requests(1) // free a credit
	if err := <-done; err != nil {
		t.Fatalf("blocked send failed: %v", err)
	}
}

func TestNodeFailure(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(4), 4)
	defer ic.Close()
	notified := make(chan core.NodeID, 1)
	ic.Watch(func(id core.NodeID, _ uint64) { notified <- id })
	ic.FailNode(2)
	if err := ic.Send(mkPkt(0, 2, proto.KindRequest)); err != ErrDown {
		t.Fatalf("send to failed node: %v", err)
	}
	if err := ic.Send(mkPkt(2, 0, proto.KindRequest)); err != ErrDown {
		t.Fatalf("send from failed node: %v", err)
	}
	select {
	case id := <-notified:
		if id != 2 {
			t.Fatalf("watcher notified of %d", id)
		}
	case <-time.After(time.Second):
		t.Fatal("watcher not notified")
	}
	if !ic.NodeDown(2) || ic.NodeDown(1) {
		t.Fatal("NodeDown state wrong")
	}
	// Healthy pairs unaffected.
	if err := ic.Send(mkPkt(0, 1, proto.KindRequest)); err != nil {
		t.Fatalf("healthy pair affected: %v", err)
	}
}

func TestLinkFailureAndRestore(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(4), 4)
	defer ic.Close()
	ic.FailLink(0, 3)
	if err := ic.Send(mkPkt(0, 3, proto.KindRequest)); err != ErrDown {
		t.Fatalf("send over failed link: %v", err)
	}
	if err := ic.Send(mkPkt(3, 0, proto.KindRequest)); err != ErrDown {
		t.Fatalf("reverse direction should fail too: %v", err)
	}
	if err := ic.Send(mkPkt(0, 1, proto.KindRequest)); err != nil {
		t.Fatalf("unrelated link affected: %v", err)
	}
	ic.RestoreLink(0, 3)
	if err := ic.Send(mkPkt(0, 3, proto.KindRequest)); err != nil {
		t.Fatalf("send after restore: %v", err)
	}
}

// TestLinkStateAcrossOverlappingFailures walks the down-link count that
// gates routeUp's lock-free path through overlapping failures: a route must
// stay down until its own link is restored, and the count must return to
// zero so a healed fabric is back on the fast path.
func TestLinkStateAcrossOverlappingFailures(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(4), 4)
	defer ic.Close()
	ic.FailLink(0, 3)
	ic.FailLinkDirected(1, 2)
	ic.RestoreLink(0, 3)
	if !ic.Reachable(0, 3) {
		t.Fatal("0<->3 still down after its restore")
	}
	if ic.Reachable(1, 2) || ic.Reachable(2, 1) {
		t.Fatal("1->2 came back with another link's restore")
	}
	ic.RestoreLink(1, 2)
	if !ic.Reachable(1, 2) {
		t.Fatal("1<->2 still down after its restore")
	}
	if n := ic.linksDown.Load(); n != 0 {
		t.Fatalf("%d links counted down on a healed fabric", n)
	}
}

func TestTorusLinkFailureBreaksRoutesThrough(t *testing.T) {
	ic := NewInterconnect(NewTorus2D(4, 1), 4)
	defer ic.Close()
	// Ring 0-1-2-3; route 0->1 is direct, 1->2 direct. Breaking 1-2
	// must break 0->2 (dimension-order route passes through).
	ic.FailLink(1, 2)
	if err := ic.Send(mkPkt(0, 2, proto.KindRequest)); err != ErrDown {
		t.Fatalf("route through failed link: %v", err)
	}
	if err := ic.Send(mkPkt(0, 1, proto.KindRequest)); err != nil {
		t.Fatalf("direct link affected: %v", err)
	}
}

func TestCloseReleasesBlockedSenders(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(2), 1)
	if err := ic.Send(mkPkt(0, 1, proto.KindRequest)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ic.Send(mkPkt(0, 1, proto.KindRequest)) }()
	time.Sleep(10 * time.Millisecond)
	ic.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("blocked sender got %v, want ErrClosed", err)
	}
	if err := ic.Send(mkPkt(0, 1, proto.KindRequest)); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

// TestCloseDrainsLanes: batches still queued when the fabric closes go back
// to the proto pool instead of staying in the lanes.
func TestCloseDrainsLanes(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(2), 4)
	for i := 0; i < 3; i++ {
		if err := ic.SendBatch(mkBatch(0, 1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := ic.Send(mkPkt(1, 0, proto.KindReply)); err != nil {
			t.Fatal(err)
		}
	}
	ic.Close()
	if req, rpl := len(ic.Requests(1)), len(ic.Replies(0)); req != 0 || rpl != 0 {
		t.Fatalf("%d request and %d reply batches left in the lanes after Close", req, rpl)
	}
}

func TestLaneForMatchesSend(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(2), 4)
	defer ic.Close()
	b := mkBatch(0, 1, 2)
	lane, err := ic.LaneFor(b.Kind(), b.Src(), b.Dst())
	if err != nil {
		t.Fatal(err)
	}
	kind, packets, wire := b.Kind(), b.Len(), b.WireSize()
	lane <- b
	ic.Account(kind, packets, wire)
	select {
	case got := <-ic.Requests(1):
		if got != b {
			t.Fatal("wrong batch delivered")
		}
	default:
		t.Fatal("LaneFor lane does not reach destination")
	}
	ic.FailNode(1)
	if _, err := ic.LaneFor(proto.KindRequest, 0, 1); err != ErrDown {
		t.Fatalf("LaneFor to failed node: %v", err)
	}
}

// TestRestoreWatchers verifies the restore half of the watcher API: link
// and node restores notify their watchers, share the link-event epoch
// counter with failures (so a Fail/Restore pair is totally ordered), and a
// restore of a healthy link or node notifies nobody.
func TestRestoreWatchers(t *testing.T) {
	ic := NewInterconnect(NewCrossbar(3), 2)
	defer ic.Close()

	type linkEv struct {
		a, b  core.NodeID
		epoch uint64
	}
	linkFail := make(chan linkEv, 4)
	linkRestore := make(chan linkEv, 4)
	nodeRestore := make(chan core.NodeID, 4)
	ic.WatchLink(func(a, b core.NodeID, e uint64) { linkFail <- linkEv{a, b, e} })
	ic.WatchLinkRestore(func(a, b core.NodeID, e uint64) { linkRestore <- linkEv{a, b, e} })
	nodeEpochs := make(chan uint64, 4)
	ic.Watch(func(id core.NodeID, e uint64) { nodeEpochs <- e })
	ic.WatchRestore(func(id core.NodeID, e uint64) {
		nodeRestore <- id
		nodeEpochs <- e
	})

	ic.FailLink(0, 1)
	fe := <-linkFail
	ic.RestoreLink(0, 1)
	re := <-linkRestore
	if re.a != 0 || re.b != 1 {
		t.Fatalf("restore event for link %d-%d, want 0-1", re.a, re.b)
	}
	//lint:ignore epochorder link epochs are plain monotonic event counters; the test asserts exactly that monotonicity
	if re.epoch <= fe.epoch {
		t.Fatalf("restore epoch %d not after failure epoch %d", re.epoch, fe.epoch)
	}
	if !ic.Reachable(0, 1) {
		t.Fatal("pair unreachable after RestoreLink")
	}

	// Restoring a healthy link is a no-op: no event, no epoch bump.
	before := ic.LinkEpoch()
	ic.RestoreLink(0, 1)
	if ic.LinkEpoch() != before {
		t.Fatal("RestoreLink of a healthy link bumped the epoch")
	}
	select {
	case ev := <-linkRestore:
		t.Fatalf("spurious restore event %v for a healthy link", ev)
	case <-time.After(10 * time.Millisecond):
	}

	ic.FailNode(2)
	if !ic.NodeDown(2) {
		t.Fatal("node 2 not down after FailNode")
	}
	ic.RestoreNode(2)
	if id := <-nodeRestore; id != 2 {
		t.Fatalf("node restore event for %d, want 2", id)
	}
	if ic.NodeDown(2) || !ic.Reachable(0, 2) {
		t.Fatal("node 2 still down after RestoreNode")
	}
	// Node fail and restore share one epoch counter: the two stamps must
	// be distinct and nonzero, so a racing pair is always orderable.
	ne1, ne2 := <-nodeEpochs, <-nodeEpochs
	if ne1 == ne2 || ne1 == 0 || ne2 == 0 {
		t.Fatalf("node event epochs %d/%d not orderable", ne1, ne2)
	}
	ic.RestoreNode(2) // healthy node: no event
	select {
	case id := <-nodeRestore:
		t.Fatalf("spurious node restore event %d", id)
	case <-time.After(10 * time.Millisecond):
	}
}
