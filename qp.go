package sonuma

import (
	"errors"
	"fmt"

	"sonuma/internal/core"
	"sonuma/internal/emu"
	"sonuma/internal/qpring"
)

// ErrClusterClosed reports an operation against a cluster that has been
// closed while the operation was waiting.
var ErrClusterClosed = errors.New("sonuma: cluster closed")

// RemoteError is the error type delivered for remote operations that fail
// at the destination (bounds violations, missing contexts, alignment) or in
// the fabric (node failures). Use errors.As to inspect the Status.
type RemoteError = core.RemoteError

// Status values carried by RemoteError.
const (
	StatusOK          = core.StatusOK
	StatusBoundsError = core.StatusBoundsError
	StatusNoContext   = core.StatusNoContext
	StatusNodeFailure = core.StatusNodeFailure
	StatusBadAlign    = core.StatusBadAlign
)

// IsNodeFailure reports whether err is (or wraps) the StatusNodeFailure
// completion the RMC delivers when the fabric cannot reach the peer — the
// signal failover logic keys on, as distinct from application-level errors
// like bounds violations.
func IsNodeFailure(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Status == core.StatusNodeFailure
}

// Completion is the callback type of the asynchronous API, mirroring the
// callbacks of Fig. 4: it runs on the application goroutine, from inside
// WaitForSlot / Poll / DrainCQ / the synchronous operations, never
// concurrently with application code.
type Completion func(slot int, err error)

// QP is a queue pair: the application schedules remote memory operations on
// the work queue and collects their completions from the completion queue
// (§4.1). A QP must be driven by a single goroutine.
//
// The asynchronous API follows the paper's access library (§5.2):
// WaitForSlot processes CQ events until the head of the WQ is free and
// returns the freed slot; IssueRead/IssueWrite schedule the split operation;
// DrainCQ waits for all outstanding operations while running callbacks.
type QP struct {
	ctx         *Context
	st          *emu.QPState
	cbs         []Completion
	busy        []bool // slot in flight: set at post, cleared at completion
	scratch     *Buffer
	outstanding int

	// Reusable completion callbacks, so the synchronous operations and
	// batch waits allocate nothing in steady state.
	syncCb      Completion // records into syncDone/syncErr
	syncDone    bool
	syncErr     error
	syncActive  bool
	batchCb     Completion // counts down batchWait, records batchErr
	batchWait   int
	batchErr    error
	batchActive bool
}

// Depth reports the WQ capacity.
func (q *QP) Depth() int { return q.st.WQ.Cap() }

// Outstanding reports the number of operations issued but not yet completed.
func (q *QP) Outstanding() int { return q.outstanding }

// Context returns the owning context.
func (q *QP) Context() *Context { return q.ctx }

// WaitForSlot processes completion events (invoking their callbacks) until
// the head of the work queue is free, then registers cb for that slot and
// returns its index. This is rmc_wait_for_slot from Fig. 4. A slot is
// freed by processing its completion, not by the RMC consuming the entry:
// that per-slot discipline is the flow control that bounds outstanding
// operations to the queue depth (§4.1), and it is what guarantees the CQ —
// sized equal to the WQ — can never overflow.
func (q *QP) WaitForSlot(cb Completion) (int, error) {
	for {
		slot := int(q.st.WQ.NextSlot())
		if !q.busy[slot] && !q.st.WQ.Full() {
			q.cbs[slot] = cb
			return slot, nil
		}
		if err := q.processOne(); err != nil {
			return 0, err
		}
	}
}

// post validates and enqueues a WQ entry at the pre-agreed slot.
func (q *QP) post(slot int, e qpring.WQEntry) error {
	if node := int(e.Node); node < 0 || node >= q.ctx.node.cluster.Nodes() {
		q.cbs[slot] = nil
		return fmt.Errorf("sonuma: node %d out of range [0,%d)", node, q.ctx.node.cluster.Nodes())
	}
	idx, ok := q.st.WQ.Post(e)
	if !ok {
		q.cbs[slot] = nil
		return errors.New("sonuma: work queue full; call WaitForSlot first")
	}
	if int(idx) != slot {
		panic(fmt.Sprintf("sonuma: WQ slot mismatch (expected %d, got %d): QP used concurrently?", slot, idx))
	}
	q.busy[slot] = true
	q.outstanding++
	q.st.Doorbell()
	return nil
}

// Entry constructors shared by the slot-at-a-time Issue* methods and the
// batched-issue API (batch.go), so the WQ encoding of every operation —
// including the Buf = ^uint32(0) "discard result" convention — lives in
// exactly one place.

// bufOpEntry builds the entry for a read/write-family op against a local
// buffer range.
func bufOpEntry(op core.Op, node int, offset uint64, buf *Buffer, bufOff, n int) (qpring.WQEntry, error) {
	if err := checkBuf(buf, bufOff, n); err != nil {
		return qpring.WQEntry{}, err
	}
	return qpring.WQEntry{
		Op: op, Node: core.NodeID(node), Offset: offset,
		Length: uint32(n), Buf: buf.id, BufOff: uint64(bufOff),
	}, nil
}

// atomicEntry builds the entry for an atomic; a nil buf discards the
// returned prior value.
func atomicEntry(op core.Op, node int, offset uint64, arg0, arg1 uint64, buf *Buffer, bufOff int) (qpring.WQEntry, error) {
	e := qpring.WQEntry{
		Op: op, Node: core.NodeID(node), Offset: offset,
		Length: 8, Arg0: arg0, Arg1: arg1, Buf: ^uint32(0),
	}
	if buf != nil {
		if err := checkBuf(buf, bufOff, 8); err != nil {
			return qpring.WQEntry{}, err
		}
		e.Buf, e.BufOff = buf.id, uint64(bufOff)
	}
	return e, nil
}

// issue posts a constructed entry (or surfaces its construction error) on
// the pre-agreed slot.
func (q *QP) issue(slot int, e qpring.WQEntry, err error) error {
	if err != nil {
		q.cbs[slot] = nil
		return err
	}
	return q.post(slot, e)
}

// IssueRead schedules a remote read of n bytes from (node, offset) into
// buf at bufOff, on a slot obtained from WaitForSlot.
func (q *QP) IssueRead(slot int, node int, offset uint64, buf *Buffer, bufOff int, n int) error {
	e, err := bufOpEntry(core.OpRead, node, offset, buf, bufOff, n)
	return q.issue(slot, e, err)
}

// IssueWrite schedules a remote write of n bytes from buf at bufOff to
// (node, offset).
func (q *QP) IssueWrite(slot int, node int, offset uint64, buf *Buffer, bufOff int, n int) error {
	e, err := bufOpEntry(core.OpWrite, node, offset, buf, bufOff, n)
	return q.issue(slot, e, err)
}

// IssueFetchAdd schedules an atomic fetch-and-add of delta on the 8-byte
// word at (node, offset). The previous value is stored into buf at bufOff
// when buf is non-nil.
func (q *QP) IssueFetchAdd(slot int, node int, offset uint64, delta uint64, buf *Buffer, bufOff int) error {
	e, err := atomicEntry(core.OpFetchAdd, node, offset, delta, 0, buf, bufOff)
	return q.issue(slot, e, err)
}

// IssueCompareSwap schedules an atomic compare-and-swap on the 8-byte word
// at (node, offset): if it equals expected it becomes newv. The previous
// value is stored into buf at bufOff when buf is non-nil.
func (q *QP) IssueCompareSwap(slot int, node int, offset uint64, expected, newv uint64, buf *Buffer, bufOff int) error {
	e, err := atomicEntry(core.OpCompareSwap, node, offset, expected, newv, buf, bufOff)
	return q.issue(slot, e, err)
}

func checkBuf(buf *Buffer, off, n int) error {
	if buf == nil {
		return errors.New("sonuma: nil buffer")
	}
	if n <= 0 || n > core.MaxRequestLen {
		return fmt.Errorf("sonuma: invalid length %d", n)
	}
	if off < 0 || off+n > buf.Size() {
		return fmt.Errorf("sonuma: range [%d,%d) outside %s", off, off+n, buf)
	}
	return nil
}

// ReadAsync is WaitForSlot + IssueRead: the Split-C-style non-blocking read
// of the access library (rmc_read_async). The callback runs when the data
// has landed in buf.
func (q *QP) ReadAsync(node int, offset uint64, buf *Buffer, bufOff int, n int, cb Completion) (int, error) {
	slot, err := q.WaitForSlot(cb)
	if err != nil {
		return 0, err
	}
	return slot, q.IssueRead(slot, node, offset, buf, bufOff, n)
}

// WriteAsync is WaitForSlot + IssueWrite (rmc_write_async).
func (q *QP) WriteAsync(node int, offset uint64, buf *Buffer, bufOff int, n int, cb Completion) (int, error) {
	slot, err := q.WaitForSlot(cb)
	if err != nil {
		return 0, err
	}
	return slot, q.IssueWrite(slot, node, offset, buf, bufOff, n)
}

// Poll processes all currently pending completions without blocking and
// reports how many were handled.
func (q *QP) Poll() int {
	n := 0
	for {
		e, ok := q.st.CQ.Poll()
		if !ok {
			return n
		}
		q.handle(e)
		n++
	}
}

// DrainCQ processes completions (running callbacks) until no operation
// remains outstanding — rmc_drain_cq from Fig. 4.
func (q *QP) DrainCQ() error {
	for q.outstanding > 0 {
		if err := q.processOne(); err != nil {
			return err
		}
	}
	return nil
}

// processOne waits for one completion (polling the CQ, then parking on the
// QP's own doorbell — see emu.QPState.WaitCQ) and handles it.
func (q *QP) processOne() error {
	e, ok := q.st.WaitCQ()
	if !ok {
		return ErrClusterClosed
	}
	q.handle(e)
	return nil
}

func (q *QP) handle(e qpring.CQEntry) {
	slot := int(e.WQIndex)
	q.outstanding--
	q.busy[slot] = false
	cb := q.cbs[slot]
	q.cbs[slot] = nil
	if cb != nil {
		cb(slot, e.Status.Err())
	}
}

// execSync issues one operation and processes completions until it
// finishes, returning its status. Other outstanding async operations'
// callbacks run as a side effect, so synchronous and asynchronous use mix
// freely on one QP.
//
// The common (non-reentrant) case reuses the QP's preallocated completion
// callback, keeping synchronous operations allocation-free; a synchronous
// operation issued from inside a completion callback falls back to a fresh
// closure so the nested completion cannot clobber the outer one.
func (q *QP) execSync(issue func(slot int) error) error {
	if q.syncActive {
		var (
			opDone bool
			opErr  error
		)
		return q.execSyncCb(issue, &opDone, &opErr, func(_ int, err error) {
			opDone = true
			opErr = err
		})
	}
	q.syncActive = true
	defer func() { q.syncActive = false }()
	q.syncDone, q.syncErr = false, nil
	return q.execSyncCb(issue, &q.syncDone, &q.syncErr, q.syncCb)
}

func (q *QP) execSyncCb(issue func(slot int) error, done *bool, opErr *error, cb Completion) error {
	slot, err := q.WaitForSlot(cb)
	if err != nil {
		return err
	}
	if err := issue(slot); err != nil {
		return err
	}
	for !*done {
		if err := q.processOne(); err != nil {
			return err
		}
	}
	return *opErr
}

// Read performs a blocking remote read of n bytes from (node, offset) into
// buf at bufOff (rmc_read_sync).
func (q *QP) Read(node int, offset uint64, buf *Buffer, bufOff int, n int) error {
	return q.execSync(func(slot int) error {
		return q.IssueRead(slot, node, offset, buf, bufOff, n)
	})
}

// Write performs a blocking remote write (rmc_write_sync).
func (q *QP) Write(node int, offset uint64, buf *Buffer, bufOff int, n int) error {
	return q.execSync(func(slot int) error {
		return q.IssueWrite(slot, node, offset, buf, bufOff, n)
	})
}

// FetchAdd atomically adds delta to the 8-byte word at (node, offset) and
// returns its previous value. The operation executes within the destination
// node's coherence domain, so it is atomic against that node's local
// accesses as well (§5.2, §7.4).
func (q *QP) FetchAdd(node int, offset uint64, delta uint64) (uint64, error) {
	err := q.execSync(func(slot int) error {
		return q.IssueFetchAdd(slot, node, offset, delta, q.scratch, 0)
	})
	if err != nil {
		return 0, err
	}
	return q.scratch.Load64(0)
}

// CompareSwap atomically replaces the 8-byte word at (node, offset) with
// newv if it equals expected, returning the previous value.
func (q *QP) CompareSwap(node int, offset uint64, expected, newv uint64) (uint64, error) {
	err := q.execSync(func(slot int) error {
		return q.IssueCompareSwap(slot, node, offset, expected, newv, q.scratch, 0)
	})
	if err != nil {
		return 0, err
	}
	return q.scratch.Load64(0)
}
