package emu

// Tests of what the pipelines and applications wait on: the op-timeout
// sweep's ticker, the CQ park, and an idle RMC's allocations.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sonuma/internal/core"
	"sonuma/internal/fabric"
)

// loneRMC starts node 0's RMC on a 2-node fabric whose node 1 has no RMC:
// requests toward node 1 sit in a lane nobody drains, so their replies are
// lost without any fabric event. It returns two QPs with a shared buffer.
func loneRMC(t *testing.T, cfg Config) (r *RMC, qps [2]*QPState, bufID uint32) {
	t.Helper()
	ic := fabric.NewInterconnect(fabric.NewCrossbar(2), 0)
	r = NewRMC(0, ic, cfg)
	t.Cleanup(func() {
		ic.Close()
		r.Close()
	})
	cs, err := r.OpenContext(1, 8192)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qps {
		if qps[i], err = r.CreateQP(cs, 8); err != nil {
			t.Fatal(err)
		}
	}
	if bufID, _, err = cs.RegisterBuffer(4096); err != nil {
		t.Fatal(err)
	}
	return r, qps, bufID
}

// TestOpTimeoutSweep: a request whose reply is lost completes with
// StatusNodeFailure no earlier than OpTimeout and within two sweep periods
// of it — with the requester pipeline kept busy by another QP, and with it
// parked and no doorbell rung after the issue, where only the sweep ticker
// can wake it.
func TestOpTimeoutSweep(t *testing.T) {
	const (
		opTimeout  = 40 * time.Millisecond
		sweepEvery = opTimeout / 4
		// Scheduling slack on top of the two sweep periods: the bound
		// being tested is "the sweep runs at all while parked/busy", and
		// a loaded 2-core box under -race delays any wake-up.
		slack = 100 * time.Millisecond
	)
	for _, busy := range []bool{true, false} {
		name := "parked"
		if busy {
			name = "busy"
		}
		t.Run(name, func(t *testing.T) {
			_, qps, bufID := loneRMC(t, Config{OpTimeout: opTimeout})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			defer wg.Wait()
			defer close(stop)
			if busy {
				wg.Add(1)
				go func() { // self-reads through the full loopback path
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, ok := qps[1].WQ.Post(wqRead(0, 0, 64, bufID)); !ok {
							t.Error("WQ full")
							return
						}
						qps[1].Doorbell()
						if e, ok := qps[1].WaitCQ(); !ok || e.Status != core.StatusOK {
							t.Errorf("self-read: status %v, ok %v", e.Status, ok)
							return
						}
					}
				}()
			}
			start := time.Now()
			post(t, qps[0], 1, 0, 64, bufID)
			e, ok := qps[0].WaitCQ()
			took := time.Since(start)
			if !ok || e.Status != core.StatusNodeFailure {
				t.Fatalf("lost request: status %v, ok %v; want node failure", e.Status, ok)
			}
			if took < opTimeout || took > opTimeout+2*sweepEvery+slack {
				t.Fatalf("lost request completed after %v, want within [%v, %v]",
					took, opTimeout, opTimeout+2*sweepEvery+slack)
			}
		})
	}
}

// TestWaitCQSpinBudgetIsPerWait: a completion that is already posted is
// returned without parking, however many earlier waits on the same QP had
// to spin and park. (The budget used to be a QP field that a successful
// poll never reset, so unrelated operations shared it.)
func TestWaitCQSpinBudgetIsPerWait(t *testing.T) {
	r0, _, _ := newRMCPair(t)
	cs, err := r0.OpenContext(3, 8192)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := r0.CreateQP(cs, 8)
	if err != nil {
		t.Fatal(err)
	}
	bufID, _, err := cs.RegisterBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if i%10 == 0 { // a wait that starts before the completion exists
			post(t, qp, 0, 0, 64, bufID)
			if e, ok := qp.WaitCQ(); !ok || e.Status != core.StatusOK {
				t.Fatalf("op %d: status %v, ok %v", i, e.Status, ok)
			}
		}
		post(t, qp, 0, 0, 64, bufID)
		for qp.CQ.Len() == 0 {
			time.Sleep(20 * time.Microsecond)
		}
		parks := qp.parks
		if e, ok := qp.WaitCQ(); !ok || e.Status != core.StatusOK {
			t.Fatalf("op %d: status %v, ok %v", i, e.Status, ok)
		}
		if qp.parks != parks {
			t.Fatalf("op %d: WaitCQ parked with its completion already posted", i)
		}
	}
}

// TestIdleRMCAllocatesNothing catches per-park garbage: with a 1 ms sweep
// period the parked pipeline wakes ~50 times in 50 ms, and a timer built
// per park (what once broke the data path's zero-alloc bar) costs three
// allocations each time. The runtime itself allocates now and then, so the
// quietest of three tries counts.
func TestIdleRMCAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, qps, bufID := loneRMC(t, Config{OpTimeout: 4 * time.Millisecond})
	post(t, qps[0], 0, 0, 64, bufID)
	if e, ok := qps[0].WaitCQ(); !ok || e.Status != core.StatusOK {
		t.Fatalf("warm-up read: status %v, ok %v", e.Status, ok)
	}
	least := ^uint64(0)
	for try := 0; try < 3 && least > 0; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		time.Sleep(50 * time.Millisecond)
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; d < least {
			least = d
		}
	}
	if least != 0 {
		t.Errorf("idle RMC made %d allocations in 50 ms, want 0", least)
	}
}
