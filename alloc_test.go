//go:build !race

package sonuma_test

// The allocation gate of the data path: steady-state remote operations
// allocate nothing. testing.AllocsPerRun reads the process-wide malloc
// count, so the RMC pipeline goroutines are covered along with the calling
// one. (Not under -race: the detector's instrumentation allocates. The idle
// half of the gate is internal/emu's TestIdleRMCAllocatesNothing.)

import (
	"testing"

	"sonuma"
)

func TestDataPathAllocatesNothing(t *testing.T) {
	cl, qps, bufs := faultCluster(t, 2, sonuma.Config{})
	defer cl.Close()
	qp, buf := qps[0], bufs[0]
	batch := qp.NewBatch()
	cases := []struct {
		name string
		op   func() error
	}{
		{"Read 64 B", func() error { return qp.Read(1, 0, buf, 0, 64) }},
		{"Write 64 B", func() error { return qp.Write(1, 64, buf, 0, 64) }},
		{"Read 4 KB", func() error { return qp.Read(1, 0, buf, 0, 4096) }},
		{"FetchAdd", func() error { _, err := qp.FetchAdd(1, 8192, 1); return err }},
		{"Batch of 8", func() error {
			for i := 0; i < 8; i++ {
				batch.Read(1, uint64(i)*64, buf, i*64, 64, nil)
			}
			return batch.SubmitWait()
		}},
	}
	for _, c := range cases {
		// Warm the proto pools, the TLB and the batch's op slice.
		for i := 0; i < 100; i++ {
			if err := c.op(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := c.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", c.name, allocs)
		}
	}
}
