package sonuma

import (
	"errors"
	"fmt"

	"sonuma/internal/core"
	"sonuma/internal/qpring"
)

// errParallelSubmit reports a Batch re-entered while its own Submit was
// still in progress.
var errParallelSubmit = errors.New("sonuma: Batch reused while its Submit is in progress; use a fresh Batch in callbacks")

// Batch accumulates remote operations and issues them as one burst: the
// work-queue tail is published once per contiguous run (qpring.PostMany)
// and the RMC doorbell rings once, instead of once per operation. The RMC's
// request generation pipeline then observes the whole burst in a single
// scheduling pass and packs it into per-destination fabric batches, so an
// application handing the RMC k operations pays one wakeup rather than k.
//
// A Batch belongs to one QP and, like the QP, must be driven by a single
// goroutine. It is reusable: Submit and SubmitWait leave it empty.
type Batch struct {
	q          *QP
	ops        []qpring.WQEntry
	cbs        []Completion
	err        error
	slot       []int // scratch reused across submits
	submitting bool  // guards against reuse from a completion callback
}

// NewBatch returns an empty, reusable operation batch on q.
func (q *QP) NewBatch() *Batch { return &Batch{q: q} }

// Len reports the number of accumulated operations.
func (b *Batch) Len() int { return len(b.ops) }

// add stages one constructed operation (or records its construction
// error, poisoning the batch). Entry construction is shared with the
// slot-at-a-time Issue* methods (bufOpEntry / atomicEntry in qp.go).
func (b *Batch) add(e qpring.WQEntry, err error, cb Completion) {
	if b.err != nil {
		return
	}
	if err != nil {
		b.err = err
		return
	}
	if node := int(e.Node); node < 0 || node >= b.q.ctx.node.cluster.Nodes() {
		b.err = fmt.Errorf("sonuma: node %d out of range [0,%d)", node, b.q.ctx.node.cluster.Nodes())
		return
	}
	b.ops = append(b.ops, e)
	b.cbs = append(b.cbs, cb)
}

// Read stages a remote read of n bytes from (node, offset) into buf at
// bufOff. cb (optional) runs when the data has landed.
func (b *Batch) Read(node int, offset uint64, buf *Buffer, bufOff int, n int, cb Completion) {
	e, err := bufOpEntry(core.OpRead, node, offset, buf, bufOff, n)
	b.add(e, err, cb)
}

// Write stages a remote write of n bytes from buf at bufOff to
// (node, offset).
func (b *Batch) Write(node int, offset uint64, buf *Buffer, bufOff int, n int, cb Completion) {
	e, err := bufOpEntry(core.OpWrite, node, offset, buf, bufOff, n)
	b.add(e, err, cb)
}

// WriteNotify stages a remote write-with-notification.
func (b *Batch) WriteNotify(node int, offset uint64, buf *Buffer, bufOff int, n int, cb Completion) {
	e, err := bufOpEntry(core.OpWriteNotify, node, offset, buf, bufOff, n)
	b.add(e, err, cb)
}

// FetchAdd stages an atomic fetch-and-add; the previous value lands in buf
// at bufOff when buf is non-nil.
func (b *Batch) FetchAdd(node int, offset uint64, delta uint64, buf *Buffer, bufOff int, cb Completion) {
	e, err := atomicEntry(core.OpFetchAdd, node, offset, delta, 0, buf, bufOff)
	b.add(e, err, cb)
}

// CompareSwap stages an atomic compare-and-swap; the previous value lands
// in buf at bufOff when buf is non-nil.
func (b *Batch) CompareSwap(node int, offset uint64, expected, newv uint64, buf *Buffer, bufOff int, cb Completion) {
	e, err := atomicEntry(core.OpCompareSwap, node, offset, expected, newv, buf, bufOff)
	b.add(e, err, cb)
}

// reset empties the batch for reuse, keeping its backing storage.
func (b *Batch) reset() {
	b.ops = b.ops[:0]
	for i := range b.cbs {
		b.cbs[i] = nil
	}
	b.cbs = b.cbs[:0]
	b.err = nil
}

// Submit posts every staged operation, publishing the WQ tail once per
// contiguous run of free slots and ringing the RMC doorbell once per run
// (one run in the common case of a batch no larger than the queue's free
// depth). It returns the WQ slots used, in staging order; the returned
// slice is reused by the next Submit. If any staged operation failed
// validation, nothing is posted. The batch is left empty for reuse.
func (b *Batch) Submit() ([]int, error) {
	if b.submitting {
		// A completion callback running inside this Submit's wait loop
		// re-entered the same batch (e.g. two layers sharing one
		// Messenger). Posting would replay the outer call's staged
		// entries; fail loudly instead. A FRESH batch may be submitted
		// from a callback.
		return nil, errParallelSubmit
	}
	b.submitting = true
	defer func() { b.submitting = false }()
	defer b.reset()
	if b.err != nil {
		return nil, b.err
	}
	q := b.q
	wq := q.st.WQ
	b.slot = b.slot[:0]
	for i := 0; i < len(b.ops); {
		chunk := len(b.ops) - i
		if c := wq.Cap(); chunk > c {
			chunk = c
		}
		// Wait until the next chunk of slots is free: room in the ring
		// and every target slot's previous completion processed. The
		// check runs with no completion processing interleaved between
		// success and posting, so the staged slots stay valid.
		for {
			ready := wq.Room() >= chunk
			for k := 0; ready && k < chunk; k++ {
				if q.busy[wq.SlotAt(uint32(k))] {
					ready = false
				}
			}
			if ready {
				break
			}
			if err := q.processOne(); err != nil {
				return b.slot, err
			}
		}
		for k := 0; k < chunk; k++ {
			slot := int(wq.SlotAt(uint32(k)))
			q.cbs[slot] = b.cbs[i+k]
			b.slot = append(b.slot, slot)
		}
		if n := wq.PostMany(b.ops[i : i+chunk]); n != chunk {
			panic(fmt.Sprintf("sonuma: batch posted %d of %d staged entries: QP used concurrently?", n, chunk))
		}
		for k := 0; k < chunk; k++ {
			q.busy[b.slot[len(b.slot)-chunk+k]] = true
		}
		q.outstanding += chunk
		q.st.Doorbell()
		i += chunk
	}
	return b.slot, nil
}

// SubmitWait submits the batch with a single doorbell and processes
// completions until every operation in it has finished, returning the
// first error among them. Operations staged without a callback use the
// QP's preallocated counting callback, so the common path (as used by the
// Messenger) allocates nothing. A SubmitWait issued from inside a
// completion callback falls back to fresh counters, so nesting cannot
// clobber the outer wait's error.
func (b *Batch) SubmitWait() error {
	q := b.q
	if q.batchActive {
		var (
			wait     int
			firstErr error
		)
		return b.submitWait(&wait, &firstErr, func(_ int, err error) {
			wait--
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	q.batchActive = true
	defer func() { q.batchActive = false }()
	return b.submitWait(&q.batchWait, &q.batchErr, q.batchCb)
}

func (b *Batch) submitWait(wait *int, firstErr *error, cb Completion) error {
	q := b.q
	n := len(b.ops)
	if b.err != nil {
		defer b.reset()
		return b.err
	}
	for i := range b.cbs {
		if b.cbs[i] == nil {
			b.cbs[i] = cb
		} else {
			user := b.cbs[i]
			b.cbs[i] = func(slot int, err error) {
				cb(slot, err)
				user(slot, err)
			}
		}
	}
	*wait += n
	if _, err := b.Submit(); err != nil {
		return err
	}
	for *wait > 0 {
		if err := q.processOne(); err != nil {
			return err
		}
	}
	err := *firstErr
	*firstErr = nil
	return err
}
