package sonuma_test

// The shutdown contract. No goroutine on the remote-op path waits on the
// transport's Done(): shutdown reaches each of them through its own RMC
// (stop channel, doorbell, CQ doorbell). These tests wedge the path at each
// of its blocking points, take the fabric away, and require every blocked
// caller to return ErrClusterClosed, Close to return, and no goroutine to
// stay behind — once with Cluster.Close on the in-process interconnect, once
// with the transports of two in-process ProcFabric endpoints closed under
// live clusters, which only the per-RMC Done() watcher can notice.

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sonuma"
	"sonuma/internal/core"
	"sonuma/internal/fabric"
	"sonuma/internal/proto"
)

// shutdownRig is a 2-node fabric with one credit per lane and one line per
// batch, so a single stalled consumer backs the path up within a few lines.
type shutdownRig struct {
	nodes [2]*sonuma.Node
	ctxs  [2]*sonuma.Context
	qps   [2]*sonuma.QP
	bufs  [2]*sonuma.Buffer
	tr    [2]fabric.Transport // node i's view of the fabric
	kill  func()              // takes the fabric away
	close func()              // closes whatever kill left
}

func newShutdownRig(t *testing.T, transport string) *shutdownRig {
	t.Helper()
	rig := &shutdownRig{close: func() {}}
	switch transport {
	case "chan":
		cl, err := sonuma.NewCluster(sonuma.Config{Nodes: 2, LinkCredits: 1, BatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		rig.kill = cl.Close
		for i := range rig.nodes {
			rig.nodes[i], rig.tr[i] = cl.Node(i), cl.Transport()
		}
	case "uds":
		dir := t.TempDir()
		var ends [2]*fabric.ProcFabric
		var cls [2]*sonuma.Cluster
		for i := range ends {
			pf, err := fabric.NewProcFabric(fabric.ProcConfig{Nodes: 2, Local: []int{i}, Dir: dir, Credits: 1})
			if err != nil {
				t.Fatal(err)
			}
			ends[i], rig.tr[i] = pf, pf
		}
		for i, pf := range ends {
			if err := pf.WaitReady(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			cl, err := sonuma.NewClusterWithTransport(sonuma.Config{BatchSize: 1}, pf, []int{i})
			if err != nil {
				t.Fatal(err)
			}
			cls[i], rig.nodes[i] = cl, cl.Node(i)
		}
		// The blocked callers are on node 0: its endpoint goes first, so
		// what they see is their own transport closing, not the peer's
		// sockets dying (which is a link failure, not a shutdown).
		rig.kill = func() { ends[0].Close(); ends[1].Close() }
		rig.close = func() { cls[0].Close(); cls[1].Close() }
	}
	for i, n := range rig.nodes {
		var err error
		if rig.ctxs[i], err = n.OpenContext(1, 1<<16); err != nil {
			t.Fatal(err)
		}
		if rig.qps[i], err = rig.ctxs[i].NewQP(16); err != nil {
			t.Fatal(err)
		}
		if rig.bufs[i], err = rig.ctxs[i].AllocBuffer(4096); err != nil {
			t.Fatal(err)
		}
	}
	return rig
}

// stall returns a handler body that reports its first entry and then blocks
// the pipeline goroutine running it until release is called.
func stall() (hold func(), entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}, 1), make(chan struct{})
	var once sync.Once
	hold = func() {
		select {
		case in <- struct{}{}:
		default:
		}
		<-out
	}
	return hold, in, func() { once.Do(func() { close(out) }) }
}

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not within 5s", what)
	}
}

// stallRRPP blocks node 1's RRPP inside a notify handler, raised by a
// write-with-notify the returned QP still has in flight.
func stallRRPP(t *testing.T, rig *shutdownRig) (release func()) {
	t.Helper()
	hold, entered, release := stall()
	rig.ctxs[1].OnNotify(func(sonuma.Notification) { hold() })
	if _, err := rig.qps[0].WriteNotifyAsync(1, 0, rig.bufs[0], 0, 64, nil); err != nil {
		t.Fatal(err)
	}
	await(t, "notify handler entered", entered)
	return release
}

func TestShutdownContract(t *testing.T) {
	// Each wedge blocks the path somewhere and returns the channel a
	// caller blocked in the QP API will deliver its error on (nil if the
	// wedge blocks pipelines only) and what un-stalls the stalled handler.
	wedges := []struct {
		name  string
		wedge func(t *testing.T, rig *shutdownRig) (blocked <-chan error, release func())
	}{
		{"read parked on a stalled RRPP", func(t *testing.T, rig *shutdownRig) (<-chan error, func()) {
			release := stallRRPP(t, rig)
			blocked := make(chan error, 1)
			go func() { blocked <- rig.qps[0].Read(1, 0, rig.bufs[0], 0, 64) }()
			return blocked, release
		}},
		{"RGP out of credits", func(t *testing.T, rig *shutdownRig) (<-chan error, func()) {
			release := stallRRPP(t, rig)
			blocked := make(chan error, 1)
			go func() { // 64 one-line batches into lanes of one credit
				if _, err := rig.qps[0].WriteAsync(1, 0, rig.bufs[0], 0, 4096, nil); err != nil {
					blocked <- err
					return
				}
				blocked <- rig.qps[0].DrainCQ()
			}()
			time.Sleep(20 * time.Millisecond)
			if sent := rig.nodes[0].RMCStats().LinesSent; sent >= 65 {
				t.Fatalf("all %d lines sent: the request lane never ran out of credits", sent)
			}
			return blocked, release
		}},
		{"RRPP out of credits", func(t *testing.T, rig *shutdownRig) (<-chan error, func()) {
			// Stall node 0's RGP/RCP in a failure callback so nothing
			// drains its reply lane, then feed node 1 requests in node
			// 0's name until nothing moves any more: node 1's RRPP is
			// blocked sending a reply and its request lane is full.
			hold, entered, release := stall()
			rig.nodes[0].OnFabricFailure(func(int) { hold() })
			rig.tr[0].FailNode(1)
			await(t, "failure callback entered", entered)
			rig.tr[0].RestoreNode(1)
			var seen uint64
			quietSince := time.Now()
			for deadline := time.Now().Add(5 * time.Second); time.Since(quietSince) < 20*time.Millisecond; {
				if time.Now().After(deadline) {
					t.Fatal("node 1 keeps consuming requests: its reply lane never filled")
				}
				b := proto.AllocBatch()
				pkt := proto.AllocPacket()
				pkt.Kind, pkt.Op, pkt.Src, pkt.Dst, pkt.Ctx = proto.KindRequest, core.OpRead, 0, 1, 1
				pkt.Aux = core.CacheLineSize
				b.Append(pkt)
				if err := rig.tr[0].TrySendBatch(b); err != nil {
					proto.FreeBatchPackets(b)
					if err != fabric.ErrBackpressure {
						t.Fatal(err)
					}
					time.Sleep(time.Millisecond)
				}
				if n := rig.nodes[1].RMCStats().RequestsRecv; n != seen {
					seen, quietSince = n, time.Now()
				}
			}
			return nil, release
		}},
	}
	for _, transport := range []string{"chan", "uds"} {
		for _, w := range wedges {
			t.Run(transport+"/"+w.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				rig := newShutdownRig(t, transport)
				blocked, release := w.wedge(t, rig)
				defer release()
				time.Sleep(20 * time.Millisecond) // let the wedged goroutines park

				killed := make(chan struct{})
				go func() { rig.kill(); close(killed) }()
				if blocked != nil {
					// Released by the stop path while the handler is
					// still stalled — not by the stalled pipeline.
					select {
					case err := <-blocked:
						if !errors.Is(err, sonuma.ErrClusterClosed) {
							t.Errorf("blocked caller returned %v, want ErrClusterClosed", err)
						}
					case <-time.After(time.Second):
						t.Fatal("blocked caller still blocked 1s after the fabric closed")
					}
				} else {
					time.Sleep(20 * time.Millisecond)
				}
				release()
				select {
				case <-killed:
				case <-time.After(time.Second):
					t.Fatal("close still blocked 1s after the stalled handler returned")
				}
				rig.close()
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines before the cluster, %d after it closed:\n%s",
							before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}
