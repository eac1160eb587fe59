// Package sonuma is a Go implementation of Scale-Out NUMA (soNUMA), the
// architecture, programming model and communication protocol for low-latency
// distributed in-memory processing introduced by Novakovic, Daglis, Bugnion,
// Falsafi and Grot (ASPLOS 2014).
//
// soNUMA exposes a partitioned global virtual address space across the nodes
// of a rack-scale cluster. Application threads issue explicit one-sided
// remote read, write and atomic operations with copy semantics against that
// address space through queue pairs (a work queue the application writes and
// a completion queue the remote memory controller writes). The remote memory
// controller (RMC) — the paper's core contribution — converts those
// operations into a stateless request/reply protocol at cache-line
// granularity over a NUMA memory fabric.
//
// This package is the paper's "development platform" (§7.1) in library form:
// a functional, wall-clock-speed emulation in which every soNUMA node runs
// inside the calling process, with the RMC pipelines (request generation,
// remote request processing, request completion) executing on dedicated
// goroutines and nodes exchanging protocol packets over an in-process memory
// fabric with credit-based flow control and two virtual lanes. The
// cycle-level hardware model that reproduces the paper's simulated-hardware
// results lives in internal/simhw and is driven by the benchmark harness.
//
// # Quick start
//
//	cluster, _ := sonuma.NewCluster(sonuma.Config{Nodes: 2})
//	defer cluster.Close()
//
//	// Every participating node opens the same context id, contributing
//	// its local segment to the global address space.
//	c0, _ := cluster.Node(0).OpenContext(1, 1<<20)
//	c1, _ := cluster.Node(1).OpenContext(1, 1<<20)
//
//	// Node 1 publishes data in its segment; node 0 reads it remotely.
//	c1.Memory().WriteAt(0, []byte("hello, rack-scale world"))
//	qp, _ := c0.NewQP(64)
//	buf, _ := c0.AllocBuffer(64)
//	_ = qp.Read(1, 0, buf, 0, 23) // one-sided remote read
//
// The messaging and synchronization primitives of §5.3 — unsolicited
// send/receive with the push/pull threshold and barriers — are implemented
// entirely in software on top of the one-sided operations, exactly as in the
// paper; see Messenger and Barrier.
//
// # Atomics and their operands
//
// Two remote atomics are exposed, FetchAdd and CompareSwap, both acting on
// an 8-byte word that must be 8-byte aligned and must not straddle a cache
// line (StatusBadAlign otherwise). They execute inside the destination
// node's coherence domain, so they are atomic against that node's local
// loads, stores and Memory.FetchAdd64 as well as against other remote
// atomics (§5.2, §7.4).
//
// Operand convention, end to end: the WQ entry carries the operands in
// Arg0/Arg1 (FetchAdd: Arg0 = delta; CompareSwap: Arg0 = expected, Arg1 =
// new value). On the wire the request packet carries them in its payload (8
// bytes for FetchAdd, expected||new = 16 bytes for CompareSwap) and the
// reply returns the 8-byte prior value. At the API, the prior value lands
// in an optional result buffer: pass a nil *Buffer to the Issue*/Batch
// forms to discard it (encoded internally as buffer id ^uint32(0)), or use
// the synchronous QP.FetchAdd / QP.CompareSwap, which return it directly
// from a QP-owned scratch buffer.
//
// # Batching and doorbells
//
// The data path is batched at two independent layers:
//
//   - Application → RMC: a work-queue post publishes the ring tail and
//     rings the RMC's doorbell (a buffered-channel wakeup). Batch
//     (QP.NewBatch) stages k operations and posts them with one tail
//     publish and one doorbell per contiguous run of free slots
//     (qpring.PostMany), so a burst pays one RMC wakeup instead of k. The
//     RMC then observes the whole burst in a single scheduling pass.
//   - RMC → fabric: the request generation pipeline unrolls WQ entries
//     into line-sized packets and packs them into per-destination batches
//     of up to MaxBatch lines (Config.BatchSize). One fabric send — and
//     one flow-control credit — covers the whole batch; the remote request
//     pipeline answers a k-line inbound batch with one k-line reply batch.
//     Packets and batches are pooled, so steady-state reads allocate
//     nothing.
//
// Completions travel the reverse path: the RMC posts CQ entries and kicks
// the QP's completion doorbell; the application side polls the CQ a few
// times and then parks on that doorbell alone (DrainCQ / WaitForSlot / the
// synchronous operations). Every wait on the path is on a channel owned by
// one RMC, which is what a synchronous single-line remote read costs here:
// about 5 µs with both nodes issuing on a 2-vCPU host, 3.7 µs alone
// (benchmark/run.sh, rmc_small; ARCHITECTURE.md, "who wakes whom").
package sonuma
