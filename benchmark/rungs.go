package main

import (
	"fmt"
	"runtime"
	"time"

	"sonuma"
	"sonuma/internal/core"
	"sonuma/internal/fabric"
	"sonuma/internal/proto"
	"sonuma/internal/qpring"
)

// The rungs time calls into each layer's public functions from one
// goroutine on an otherwise idle process, with fixed iteration counts. Each
// is the median over rungBlocks blocks of the block's mean, after one
// discarded block. README.md maps every rung to the end-to-end metric it
// should move.
const rungBlocks = 5

// perIter runs f n times per block and returns the median block mean in
// nanoseconds per call.
func perIter(n int, f func()) float64 {
	means := make([]float64, 0, rungBlocks)
	for b := 0; b <= rungBlocks; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if b > 0 {
			means = append(means, float64(time.Since(t))/float64(n))
		}
	}
	return median(means)
}

// allocsPer reports heap allocations per call of f over n calls.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// rungErr carries the first error out of a rung's closure.
type rungErr struct{ err error }

func (r *rungErr) check(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// iters scales a rung's iteration count down by div (the tests' dry run),
// to no less than one batch of work.
func iters(n, div int) int {
	if n /= div; n < proto.MaxBatch {
		return proto.MaxBatch
	}
	return n
}

// runRungs measures every rung into res. div is 1 except in the tests' dry
// run, which divides the iteration counts by it.
func runRungs(res *result, outDir string, div int) error {
	rungQPRing(res, iters(200000, div))
	rungProto(res, iters(200000, div))
	chanHop := rungChanFabric(res, iters(200000, div))
	if err := rungSocketFabric(res, outDir, iters(2000, div)); err != nil {
		return fmt.Errorf("socket fabric: %w", err)
	}
	read256, err := rungSonuma(res, chanHop, iters(4000, div))
	if err != nil {
		return fmt.Errorf("sonuma: %w", err)
	}
	if err := rungSonumaOverSockets(res, outDir, iters(4000, div)); err != nil {
		return fmt.Errorf("sonuma over sockets: %w", err)
	}
	if err := rungKVS(res, read256, iters(2000, div)); err != nil {
		return fmt.Errorf("kvs: %w", err)
	}
	return nil
}

func rungQPRing(res *result, n int) {
	wq, cq := qpring.NewWQ(128), qpring.NewCQ(128)
	e := qpring.WQEntry{Op: core.OpRead, Node: 1, Length: lineBytes}
	res.put("qpring.wq_post_poll_ns", perIter(n, func() { wq.Post(e); wq.Poll() }), "ns")
	res.put("qpring.cq_post_poll_ns", perIter(n, func() { cq.Post(qpring.CQEntry{WQIndex: 1}); cq.Poll() }), "ns")
	es := make([]qpring.WQEntry, proto.MaxBatch)
	for i := range es {
		es[i] = e
	}
	res.put("qpring.wq_postmany32_ns_per_entry", perIter(n/proto.MaxBatch, func() {
		wq.PostMany(es)
		for range es {
			wq.Poll()
		}
	})/proto.MaxBatch, "ns")
}

// linePacket returns a pooled request packet carrying one line of payload.
func linePacket(src, dst core.NodeID) *proto.Packet {
	p := proto.AllocPacket()
	p.Kind, p.Op, p.Src, p.Dst, p.Ctx = proto.KindRequest, core.OpWrite, src, dst, 1
	p.AllocPayload(lineBytes)
	return p
}

func lineBatch(src, dst core.NodeID, lines int) *proto.Batch {
	b := proto.AllocBatch()
	for i := 0; i < lines; i++ {
		b.Append(linePacket(src, dst))
	}
	return b
}

func rungProto(res *result, n int) {
	cycle := func() { proto.FreePacket(linePacket(0, 1)) }
	res.put("proto.packet_alloc_free_ns", perIter(n, cycle), "ns")
	res.put("proto.allocs_per_packet", allocsPer(n, cycle), "allocs/op")
	res.put("proto.batch_fill32_free_ns", perIter(n/proto.MaxBatch, func() {
		proto.FreeBatchPackets(lineBatch(0, 1, proto.MaxBatch))
	}), "ns")
	p, q := linePacket(0, 1), proto.AllocPacket()
	defer proto.FreePacket(p)
	defer proto.FreePacket(q)
	buf := make([]byte, proto.MaxPacketSize)
	res.put("proto.marshal_unmarshal_ns", perIter(n, func() {
		// A line packet always fits buf and always decodes.
		enc, _ := p.Marshal(buf)
		_ = proto.UnmarshalInto(q, enc)
	}), "ns")
}

// rungChanFabric times a batch through an in-process lane, sent and received
// by the same goroutine: route check, accounting and one buffered channel
// send and receive, with no wake-up in it. It returns the 1-packet hop.
func rungChanFabric(res *result, n int) float64 {
	ic := fabric.NewInterconnect(fabric.NewCrossbar(2), 0)
	defer ic.Close()
	hop := func(lines, n int) float64 {
		b := lineBatch(0, 1, lines)
		defer proto.FreeBatchPackets(b)
		return perIter(n, func() {
			// Nothing fails the lane, and the received batch is b again.
			_ = ic.SendBatch(b)
			b = <-ic.Requests(1)
		})
	}
	one := hop(1, n)
	res.put("fabric.chan_hop_ns", one, "ns")
	res.put("fabric.chan_hop32_ns_per_line", hop(proto.MaxBatch, n)/proto.MaxBatch, "ns")
	return one
}

// rungSocketFabric times a batch from one socket-fabric endpoint into the
// other's inbound lane, both in this process: frame encode, CRC, write,
// read, decode, credit frame.
func rungSocketFabric(res *result, outDir string, n int) error {
	pair, err := newSocketPair(outDir)
	if err != nil {
		return err
	}
	defer pair.close()
	ends := pair.ends
	var re rungErr
	hop := func(lines int) func() {
		return func() {
			re.check(ends[0].SendBatch(lineBatch(0, 1, lines)))
			proto.FreeBatchPackets(<-ends[1].Requests(1))
		}
	}
	res.put("fabric.uds_hop_us", perIter(n, hop(1))/1e3, "us")
	res.put("fabric.uds_hop32_us_per_line", perIter(n/4, hop(proto.MaxBatch))/1e3/proto.MaxBatch, "us")
	res.put("fabric.uds_allocs_per_batch", allocsPer(n, hop(1)), "allocs/op")
	return re.err
}

// rungSonuma times the public API on an idle 2-node in-process cluster, at
// a fixed offset like the repository's BenchmarkDataPath*: these are the
// numbers ROADMAP.md tracks (single-line read latency, allocs per read).
// It returns the slot-sized (256 B) sync read the kvs rung subtracts.
func rungSonuma(res *result, chanHopNs float64, n int) (read256us float64, err error) {
	// The messenger region sits above the bytes the read and write rungs
	// touch.
	mcfg := sonuma.MessengerConfig{RegionOffset: maxBurst * blockBytes}
	cl, err := sonuma.NewCluster(sonuma.Config{Nodes: 2})
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	var ctx [2]*sonuma.Context
	for i := range ctx {
		if ctx[i], err = cl.Node(i).OpenContext(1, mcfg.RegionOffset+sonuma.MessengerRegionSize(2, mcfg)); err != nil {
			return 0, err
		}
	}
	qp, err := ctx[0].NewQP(0)
	if err != nil {
		return 0, err
	}
	buf, err := ctx[0].AllocBuffer(maxBurst * blockBytes)
	if err != nil {
		return 0, err
	}
	var re rungErr
	read := func(size int) func() { return func() { re.check(qp.Read(1, 0, buf, 0, size)) } }
	read64 := perIter(n, read(lineBytes)) / 1e3
	res.put("sonuma.read64_sync_us", read64, "us")
	res.put("sonuma.read64_allocs_per_op", allocsPer(n, read(lineBytes)), "allocs/op")
	res.put("sonuma.write64_sync_us", perIter(n, func() { re.check(qp.Write(1, 0, buf, 0, lineBytes)) })/1e3, "us")
	read256us = perIter(n, read(256)) / 1e3
	res.put("sonuma.read256_sync_us", read256us, "us")
	res.put("sonuma.read4k_sync_us", perIter(n/4, read(blockBytes))/1e3, "us")
	res.put("sonuma.fetchadd_sync_us", perIter(n, func() {
		_, err := qp.FetchAdd(1, 0, 1)
		re.check(err)
	})/1e3, "us")
	// What the layers below do not explain of one line read: two lane hops
	// and a WQ and a CQ hand-off.
	res.put("sonuma.read64_self_us", read64-(2*chanHopNs+res.Metrics["qpring.wq_post_poll_ns"].Value+
		res.Metrics["qpring.cq_post_poll_ns"].Value)/1e3, "us")

	// One batch of maxBurst 4 KB reads: time inside Submit, and from its
	// return to the last completion.
	batch := qp.NewBatch()
	var inSubmit, waiting time.Duration
	perIter(n/16, func() {
		for k := 0; k < maxBurst; k++ {
			batch.Read(1, uint64(k*blockBytes), buf, k*blockBytes, blockBytes, nil)
		}
		t0 := time.Now()
		_, err := batch.Submit()
		t1 := time.Now()
		re.check(err)
		re.check(qp.DrainCQ())
		inSubmit += t1.Sub(t0)
		waiting += time.Since(t1)
	})
	batches := float64((rungBlocks + 1) * (n / 16))
	res.put("sonuma.batch_submit_ns_per_op", float64(inSubmit)/batches/maxBurst, "ns")
	res.put("sonuma.batch_wait_us", float64(waiting)/batches/1e3, "us")
	if re.err != nil {
		return 0, re.err
	}

	// Messenger: 64 B pushes from node 0 to node 1, one in flight. The
	// receiver stamps the moment Recv returns; both clocks are this
	// process's monotonic clock.
	var ms [2]*sonuma.Messenger
	for i := range ms {
		mqp, err := ctx[i].NewQP(0)
		if err != nil {
			return 0, err
		}
		if ms[i], err = sonuma.NewMessenger(ctx[i], mqp, mcfg); err != nil {
			return 0, err
		}
	}
	arrived := make(chan time.Time)
	var recvErr error
	go func() {
		defer close(arrived)
		for i := 0; i < 2*n; i++ {
			if _, recvErr = ms[1].Recv(); recvErr != nil {
				return
			}
			arrived <- time.Now()
		}
	}()
	payload := make([]byte, lineBytes)
	var inSend, oneWay time.Duration
	send := func() {
		t0 := time.Now()
		if err := ms[0].Send(1, payload); err != nil {
			re.check(err)
			return
		}
		inSend += time.Since(t0)
		oneWay += (<-arrived).Sub(t0)
	}
	for i := 0; i < n; i++ { // warm-up
		send()
	}
	inSend, oneWay = 0, 0
	allocs := allocsPer(n, send)
	if re.err == nil {
		<-arrived // closed: the receiver has exited, recvErr is final
		re.check(recvErr)
	}
	res.put("sonuma.msg_send_ns", float64(inSend)/float64(n), "ns")
	res.put("sonuma.msg_oneway_us", float64(oneWay)/float64(n)/1e3, "us")
	res.put("sonuma.msg_allocs_per_msg", allocs, "allocs/op")
	return read256us, re.err
}

// rungSonumaOverSockets times the public API's line read with the socket
// pair for a fabric: the remote-read path of a multi-process cluster, without
// a second process for the OS scheduler to place.
func rungSonumaOverSockets(res *result, outDir string, n int) error {
	sys, err := bootRMCOverSockets(specByName("rmc_small"), 1, outDir)
	if err != nil {
		return err
	}
	defer sys.close()
	is := sys.(*rmcSystem).is[0]
	var re rungErr
	read := func() { re.check(is.qp.Read(is.peer, 0, is.buf, 0, lineBytes)) }
	before := sys.counters()
	res.put("sonuma.read64_uds_sync_us", perIter(n, read)/1e3, "us")
	after := sys.counters()
	// Lines cross the socket fabric both ways: requests out, replies back.
	res.put("fabric.uds_wire_bytes_per_line", ratio(after.wireBytes-before.wireBytes,
		after.rmc.LinesSent-before.rmc.LinesSent+after.rmc.RequestsRecv-before.rmc.RequestsRecv), "B/line")
	res.put("sonuma.read64_uds_allocs_per_op", allocsPer(n, read), "allocs/op")
	return re.err
}

// rungKVS times single client calls on an idle store of the workloads'
// geometry, from the client on node 0.
func rungKVS(res *result, read256us float64, n int) error {
	sp := *specByName("kvs_write")
	sp.items = 512
	sys, err := bootKVS(&sp, 1, "")
	if err != nil {
		return err
	}
	defer sys.close()
	s := sys.(*kvsSystem)
	is := s.is[0]
	// Keys node 0 leads (its PUTs are applied locally) and keys it must
	// forward to a remote leader.
	var led, remote []uint32
	ring := s.stores[0].Ring()
	for id := range s.keys {
		if ring.Owners(ring.ShardOf(s.keys[id]))[0] == 0 {
			led = append(led, uint32(id))
		} else {
			remote = append(remote, uint32(id))
		}
	}
	if len(led) == 0 || len(remote) == 0 {
		return fmt.Errorf("ring gives node 0 %d led and %d remote keys of %d", len(led), len(remote), len(s.keys))
	}
	var re rungErr
	i := 0
	before := sys.counters().rmc.WQConsumed
	getUs := perIter(n, func() {
		_, err := is.c.Get(s.keys[i%len(s.keys)])
		re.check(err)
		i++
	}) / 1e3
	rmcPerGet := float64(sys.counters().rmc.WQConsumed-before) / float64((rungBlocks+1)*n)
	res.put("kvs.get_us", getUs, "us")
	res.put("kvs.get_self_us", getUs-rmcPerGet*read256us, "us")
	res.put("kvs.multiget8_us_per_key", perIter(n/maxBurst, func() {
		for k := range is.burst {
			is.burst[k] = s.keys[(i+k)%len(s.keys)]
		}
		_, errs := is.c.MultiGet(is.burst[:])
		for _, err := range errs {
			re.check(err)
		}
		i += maxBurst
	})/1e3/maxBurst, "us")
	putOver := func(ids []uint32) float64 {
		return perIter(n/2, func() {
			re.check(is.put(ids[i%len(ids)]))
			i++
		}) / 1e3
	}
	res.put("kvs.put_leader_us", putOver(led), "us")
	res.put("kvs.put_forwarded_us", putOver(remote), "us")
	return re.err
}
