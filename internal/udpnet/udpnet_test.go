package udpnet_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/reliab"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
	"repro/internal/udpnet"
)

// mcastPort hands out distinct multicast ports per test so concurrent
// worlds on one host do not cross-deliver — below the ephemeral range,
// where no other process's port-0 socket can already hold one (see
// udpnet.DefaultMcastPort).
var mcastPort atomic.Int32

func init() { mcastPort.Store(29100) }

func testConfig(n int) udpnet.Config {
	cfg := udpnet.DefaultConfig(n)
	cfg.McastPort = int(mcastPort.Add(2))
	return cfg
}

func requireMulticast(t *testing.T) {
	t.Helper()
	if err := udpnet.Probe(); err != nil {
		t.Skipf("IP multicast unavailable in this environment: %v", err)
	}
}

// udpHarness adapts the world to the transport conformance suite.
type udpHarness struct {
	nw *udpnet.Net
}

func (h *udpHarness) Size() int { return h.nw.Size() }

func (h *udpHarness) Run(t *testing.T, fns []func(ep transport.Endpoint) error) {
	t.Helper()
	defer h.nw.Close()
	var wg sync.WaitGroup
	errs := make([]error, len(fns))
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func(transport.Endpoint) error) {
			defer wg.Done()
			errs[i] = fn(h.nw.Endpoint(i))
		}(i, fn)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

// failOnHang fails the test binary if t is still running after limit.
// A world on real sockets has no deadlock detector: a rank that returns
// early leaves its peers blocked in a receive for good. A hang was seen
// once and its only goroutine dump lost to a `| tail`, so the watchdog
// writes every goroutine's stack first and panics second, well inside
// go test's own ten minutes, and the hang explains itself at the top of
// what it prints. Every test that runs a world calls it first, with a
// limit well above its normal wall time.
func failOnHang(t *testing.T, limit time.Duration) {
	t.Helper()
	name := t.Name()
	watchdog := time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "%s still running after %v; all goroutines:\n%s\n", name, limit, buf[:runtime.Stack(buf, true)])
		panic(name + ": watchdog expired (every goroutine's stack is printed above)")
	})
	t.Cleanup(func() { watchdog.Stop() })
}

func TestUDPConformance(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 60*time.Second)
	transporttest.RunAll(t, func(t *testing.T, n int) transporttest.Harness {
		nw, err := udpnet.New(testConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		return &udpHarness{nw: nw}
	})
}

func TestUnicastOnlyWithoutMulticast(t *testing.T) {
	// Point-to-point traffic must work even where multicast does not, so
	// no probe/skip here.
	nw, err := udpnet.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	want := bytes.Repeat([]byte{7}, 9000) // several fragments
	done := make(chan error, 2)
	go func() {
		done <- nw.Endpoint(0).Send(1, transport.Message{Tag: 3, Payload: want})
	}()
	go func() {
		m, err := nw.Endpoint(1).Recv()
		if err != nil {
			done <- err
			return
		}
		if m.Tag != 3 || !bytes.Equal(m.Payload, want) {
			done <- fmt.Errorf("message corrupted: tag=%d len=%d", m.Tag, len(m.Payload))
			return
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestMPIOverRealUDPMulticast(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	algs := core.Algorithms(core.Binary)
	want := bytes.Repeat([]byte{0xC3}, 4000)
	err := udpnet.Run(testConfig(5), algs, func(c *mpi.Comm) error {
		buf := make([]byte, len(want))
		if c.Rank() == 0 {
			copy(buf, want)
		}
		if err := c.Bcast(buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d corrupted", c.Rank())
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// A reduction over the baseline path for good measure.
		send := mpi.Int64sToBytes([]int64{int64(c.Rank())})
		recv := make([]byte, len(send))
		if err := c.Allreduce(send, recv, mpi.Int64, mpi.OpSum); err != nil {
			return err
		}
		if got := mpi.BytesToInt64s(recv)[0]; got != 10 {
			return fmt.Errorf("allreduce = %d, want 10", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulticastSingleDatagramManyReceivers(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	// The receiver-directed economy: one send, N-1 deliveries. Verify by
	// datagram counters: the root sends exactly 1 data datagram for a
	// small payload (plus the scouts it received as unicast).
	const n = 4
	nw, err := udpnet.New(testConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := make([]transport.Endpoint, n)
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	algs := core.Algorithms(core.Linear)
	err = mpi.RunEndpoints(eps, algs, func(c *mpi.Comm) error {
		buf := make([]byte, 100)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = 9
			}
		}
		return c.Bcast(buf, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	root := nw.Endpoint(0).Stats()
	if root.DatagramsSent != 1 {
		t.Errorf("root sent %d datagrams, want exactly 1 multicast", root.DatagramsSent)
	}
	for r := 1; r < n; r++ {
		st := nw.Endpoint(r).Stats()
		if st.DatagramsSent != 1 { // its scout
			t.Errorf("rank %d sent %d datagrams, want 1 scout", r, st.DatagramsSent)
		}
	}
}

func TestSlowReceiverOverRealMulticast(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	// The paper's scenario on real sockets: rank 2 is slow to enter the
	// broadcast. The scout protocol must still deliver (the root cannot
	// multicast until rank 2's scout arrives).
	algs := core.Algorithms(core.Binary)
	want := []byte("slow-receiver-safe")
	err := udpnet.Run(testConfig(4), algs, func(c *mpi.Comm) error {
		if c.Rank() == 2 {
			// Busy-wait on the wall clock (no sleeps in the harness).
			start := c.Now()
			for c.Now()-start < 50_000_000 { // 50 ms
			}
		}
		buf := make([]byte, len(want))
		if c.Rank() == 1 {
			copy(buf, want)
		}
		if err := c.Bcast(buf, 1); err != nil {
			return err
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("rank %d corrupted: %q", c.Rank(), buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAckBcastOverRealUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	err := udpnet.Run(testConfig(3), core.AckAlgorithms(), func(c *mpi.Comm) error {
		buf := make([]byte, 256)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		if err := c.Bcast(buf, 0); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i) {
				return fmt.Errorf("rank %d corrupted at %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentAndUnblocks(t *testing.T) {
	nw, err := udpnet.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ep := nw.Endpoint(0)
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		done <- err
	}()
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != transport.ErrClosed {
		t.Fatalf("Recv after close = %v, want ErrClosed", err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal("second close errored")
	}
	nw.Close()
}

// TestP2PLossConformanceOverUDP drives the suite-wide conformance pass
// over real sockets with receiver-side point-to-point loss injected:
// every bypass frame kind — reduce halves, gather chunks, scouts, and
// the stream layer's own acks and probes — may vanish, and the reliable
// stream must repair all of it. This is the udpnet half of the p2p loss
// sweep (the simulator half lives in core's conformance tests).
func TestP2PLossConformanceOverUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	for _, rate := range []float64{0.02, 0.10} {
		rate := rate
		t.Run(fmt.Sprintf("p2p=%g", rate), func(t *testing.T) {
			cfg := testConfig(5)
			cfg.P2PLossRate = rate
			cfg.LossSeed = 42
			nw, err := udpnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			eps := make([]transport.Endpoint, nw.Size())
			for i := range eps {
				eps[i] = nw.Endpoint(i)
			}
			algs := core.Algorithms(core.Binary)
			err = mpi.RunEndpoints(eps, algs, func(c *mpi.Comm) error {
				for _, chunk := range []int{1, 1000, 4000} {
					if err := coretest.Conformance(c, chunk, 0); err != nil {
						return fmt.Errorf("chunk %d: %w", chunk, err)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			var losses, retransmits int64
			for i := 0; i < nw.Size(); i++ {
				st := nw.Endpoint(i).Stats()
				losses += st.InjectedP2PLosses
				retransmits += st.Stream.Retransmits
			}
			if losses == 0 {
				t.Fatal("p2p loss injection never fired; the claim is vacuous")
			}
			if retransmits == 0 {
				t.Fatal("losses were injected but nothing was retransmitted")
			}
			t.Logf("recovered from %d injected p2p losses with %d retransmitted fragments", losses, retransmits)
			checkDatagramAccounting(t, nw)
		})
	}
}

// TestNackRepairOverUDP runs the NACK-repaired suite over real sockets
// with both injections on — 2 % of multicast fragments and 2 % of
// point-to-point frames vanish at the receiver — and checks every result
// against the oracle. Both repair paths must have run on evidence: repair
// requests served with fragments flagged as retransmissions, heard by the
// group, and sends confirmed by a probe right behind them while that
// evidence lasted.
func TestNackRepairOverUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	cfg := testConfig(4)
	cfg.LossRate, cfg.P2PLossRate, cfg.LossSeed = 0.02, 0.02, 42
	nw, err := udpnet.RunNet(cfg, core.ResilientAlgorithms(), func(c *mpi.Comm) error {
		for rep := 0; rep < 3; rep++ {
			for _, chunk := range []int{1, 1000, 20000} {
				if err := coretest.Conformance(c, chunk, rep%c.Size()); err != nil {
					return fmt.Errorf("rep %d chunk %d: %w", rep, chunk, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var mcastLost, p2pLost, repairs, confirms, retransmits int64
	for i := 0; i < nw.Size(); i++ {
		st := nw.Endpoint(i).Stats()
		mcastLost += st.InjectedLosses
		p2pLost += st.InjectedP2PLosses
		repairs += st.RepairsHeard
		confirms += st.Stream.ConfirmsSent
		retransmits += st.Stream.Retransmits
	}
	if mcastLost == 0 || p2pLost == 0 {
		t.Fatalf("injection never fired (%d multicast, %d point-to-point frames dropped); the claim is vacuous", mcastLost, p2pLost)
	}
	if repairs == 0 || confirms == 0 {
		t.Fatalf("%d repair-flagged fragments heard, %d sends confirmed: losses were repaired without the evidence path", repairs, confirms)
	}
	t.Logf("dropped %d multicast and %d point-to-point frames; heard %d repair-flagged fragments, confirmed %d sends, retransmitted %d stream fragments",
		mcastLost, p2pLost, repairs, confirms, retransmits)
}

// TestTwoLevelConformanceOverUDP runs the topology-aware two-level
// suite over real sockets with a DECLARED topology (real UDP cannot
// discover the fabric, so Config.SegmentFanout states it): the
// hierarchical path — leader aggregates, segment-group scatter and
// alltoall blocks over derived segment groups — must conform on
// genuine kernel multicast, for even and uneven placements. The scatter
// and gather run two levels only with a segment's chunks in one frame,
// the scatter from 32 ranks and the gather from 16, so 65 ranks with a
// singleton segment take both there at 1-byte chunks, and 17 ranks the
// gather.
func TestTwoLevelConformanceOverUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 60*time.Second)
	ranks := make([]int, 65)
	for r := range ranks {
		ranks[r] = r
	}
	for _, tc := range []struct {
		name    string
		n       int
		fanout  int
		members [][]int // the placement the fanout declares, by segment
	}{
		{name: "fanout2", n: 5, fanout: 2, members: [][]int{{0, 1}, {2, 3}, {4}}},
		{name: "declared-uneven", n: 6, fanout: 4, members: [][]int{{0, 1, 2, 3}, {4, 5}}},
		{name: "regime", n: 17, fanout: 4, members: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}, {16}}},
		{name: "regime-65", n: 65, fanout: 4, members: slices.Collect(slices.Chunk(ranks, 4))},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.n)
			cfg.SegmentFanout = tc.fanout
			nw, err := udpnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer nw.Close()
			eps := make([]transport.Endpoint, nw.Size())
			for i := range eps {
				eps[i] = nw.Endpoint(i)
			}
			algs := core.TwoLevelAlgorithms()
			err = mpi.RunEndpoints(eps, algs, func(c *mpi.Comm) error {
				tm := c.Topo()
				if tm == nil || tm.Segments() != len(tc.members) {
					return fmt.Errorf("expected %d declared segments, got %v", len(tc.members), tm)
				}
				for seg, want := range tc.members {
					if got := tm.Members(seg); !slices.Equal(got, want) {
						return fmt.Errorf("segment %d holds ranks %v, want %v", seg, got, want)
					}
				}
				for _, chunk := range []int{1, 1000, 4000} {
					for _, root := range []int{0, tc.n - 1} {
						if err := coretest.Conformance(c, chunk, root); err != nil {
							return fmt.Errorf("chunk %d root %d: %w", chunk, root, err)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChunkedAllreduceOverUDP runs the chunked allreduce on real
// sockets over two declared segments of four ranks, where its
// allgather sends no scouts: each multicast goes out as soon as its
// sender leaves the reduce-scatter, possibly while a receiver is still
// inside it. udpnet posts no descriptors, so the kernel's socket buffers
// must hold those early datagrams. Chunks of 1 and 1,000 B have the
// segment leaders multicast; 4,000 and 20,000 B have every rank
// multicast its own slice.
func TestChunkedAllreduceOverUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	cfg := testConfig(8)
	cfg.SegmentFanout = 4
	nw, err := udpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := make([]transport.Endpoint, nw.Size())
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	algs := core.Algorithms(core.Binary)
	algs.Allreduce = core.AllreduceMcastChunked
	err = mpi.RunEndpoints(eps, algs, func(c *mpi.Comm) error {
		if tm := c.Topo(); tm == nil || tm.Segments() != 2 {
			return fmt.Errorf("expected 2 declared segments, got %v", tm)
		}
		for _, chunk := range []int{1, 1000, 4000, 20000} {
			if err := coretest.CheckOp(c, "allreduce", chunk, 0); err != nil {
				return fmt.Errorf("chunk %d: %w", chunk, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChunkedLaneGatherOverUDP runs the chunked allreduce's lane gather
// on real sockets: 32 ranks on 16 declared segments of two, so the lane
// step halves over S=16 and, while a lane's slices fit one fragment,
// each lane gathers toward its member in segment 0 and those two ranks
// multicast (F + 2·log2 S = 10 < 16). At 1 B all slices but one and one
// lane are empty; at 20,000 B a lane region spans several fragments and
// the segment leaders multicast instead.
func TestChunkedLaneGatherOverUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	cfg := testConfig(32)
	cfg.SegmentFanout = 2
	nw, err := udpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := make([]transport.Endpoint, nw.Size())
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	algs := core.Algorithms(core.Binary)
	algs.Allreduce = core.AllreduceMcastChunked
	err = mpi.RunEndpoints(eps, algs, func(c *mpi.Comm) error {
		if tm := c.Topo(); tm == nil || tm.Segments() != 16 {
			return fmt.Errorf("expected 16 declared segments, got %v", tm)
		}
		for _, chunk := range []int{1, 100, 2000, 20000} {
			if err := coretest.CheckOp(c, "allreduce", chunk, 0); err != nil {
				return fmt.Errorf("chunk %d: %w", chunk, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBaselineP2PLossOverUDP is the udpnet half of the MPICH loss
// coverage: the modeled-TCP baseline's frames ride the reliable stream
// like everything else, so receiver-side loss (data and the eager TCP
// acks alike) must be repaired over real sockets too.
func TestBaselineP2PLossOverUDP(t *testing.T) {
	failOnHang(t, 30*time.Second)
	cfg := testConfig(5)
	cfg.P2PLossRate = 0.05
	cfg.LossSeed = 7
	nw, err := udpnet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := make([]transport.Endpoint, nw.Size())
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	err = mpi.RunEndpoints(eps, baseline.Algorithms(), func(c *mpi.Comm) error {
		for _, chunk := range []int{1, 1000, 4000} {
			if err := coretest.Conformance(c, chunk, 0); err != nil {
				return fmt.Errorf("chunk %d: %w", chunk, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var losses, retransmits int64
	for i := 0; i < nw.Size(); i++ {
		st := nw.Endpoint(i).Stats()
		losses += st.InjectedP2PLosses
		retransmits += st.Stream.Retransmits
	}
	if losses == 0 {
		t.Fatal("p2p loss injection never fired on the baseline; the claim is vacuous")
	}
	if retransmits == 0 {
		t.Fatal("losses were injected but nothing was retransmitted")
	}
	t.Logf("baseline recovered from %d injected p2p losses with %d retransmitted fragments", losses, retransmits)
	checkDatagramAccounting(t, nw)
}

// checkDatagramAccounting holds Stats.DatagramsSent to what the socket
// sent: summed over the world it covers at least every streamed message,
// retransmitted fragment, probe and ack the stream counters report —
// the control and repair paths used to bypass the count. A stream
// counter moves just before its datagram is written, so the datagram
// count is polled until it has caught up with the snapshot.
func checkDatagramAccounting(t *testing.T, nw *udpnet.Net) {
	t.Helper()
	var want int64
	for i := 0; i < nw.Size(); i++ {
		st := nw.Endpoint(i).Stats().Stream
		want += st.MsgsStreamed + st.Retransmits + st.ProbesSent + st.AcksSent
	}
	var sent int64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		sent = 0
		for i := 0; i < nw.Size(); i++ {
			sent += nw.Endpoint(i).Stats().DatagramsSent
		}
		if sent >= want || time.Now().After(deadline) {
			break
		}
	}
	if sent < want {
		t.Fatalf("DatagramsSent=%d < %d messages streamed + retransmits + probes + acks: some write path is uncounted", sent, want)
	}
}

// TestWindowCreditNeedsNoTimerOverUDP: a one-way burst of ten windows
// finishes at socket speed — a sender that finds its window full asks for
// credit instead of waiting for its probe timer — and neither the burst
// nor a run of small collectives after it retransmits anything on a
// lossless loopback. Timer-driven credit would cost a probe timeout per
// window, (burst/window)·RTO = 250 ms; the burst must take under half.
func TestWindowCreditNeedsNoTimerOverUDP(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	const (
		n     = 4
		burst = 10 * reliab.Window
		bound = time.Duration(burst / reliab.Window * reliab.RTO / 2)
	)
	nw, err := udpnet.New(testConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()

	start := time.Now()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < burst; i++ {
			if err := nw.Endpoint(0).SendReliable(1, transport.Message{Class: transport.ClassData, Tag: int32(i), Payload: make([]byte, 64)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < burst; i++ {
		if _, err := nw.Endpoint(1).Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > bound {
		t.Errorf("a burst of %d messages took %v, over %v: some send waited for its probe timer", burst, took, bound)
	}

	eps := make([]transport.Endpoint, n)
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	err = mpi.RunEndpoints(eps, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		send, recv := mpi.Float64sToBytes(make([]float64, 8)), make([]byte, 64)
		for i := 0; i < 200; i++ {
			if err := c.Allreduce(send, recv, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var st reliab.Stats
	for i := 0; i < n; i++ {
		s := nw.Endpoint(i).Stats().Stream
		st.WindowStalls += s.WindowStalls
		st.Retransmits += s.Retransmits
		st.DupFragments += s.DupFragments
	}
	if st.WindowStalls == 0 || st.Retransmits != 0 || st.DupFragments != 0 {
		t.Errorf("stream counters %+v: want window stalls (the burst is ten windows long) and no retransmission or duplicate on a lossless loopback", st)
	}
}
