package simnet_test

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestPausedWindowBoundsHostQueue is the stream-aware pacing claim
// (ROADMAP): switch flow control stops a converging burst from
// overflowing the egress queue by PAUSEing the senders, but without a
// transport hook the paused NIC's transmit queue absorbs the stream's
// whole send window in host memory. Shrinking the reliable-stream
// admission window to the paused window while the NIC is paused
// propagates the backpressure one layer further up: the sender blocks
// in SendReliable instead of queueing, and the NIC's queue-depth high
// watermark stays near the paused window for however long the pause
// holds.
//
// The scenario sustains the pause the way the A4/A5 funnels do: four
// background blasters saturate the receiver's egress port (plain
// sends — no admission control, exactly the uncontrolled traffic that
// keeps a port full), so the measured sender's NIC is paused
// quasi-continuously while it pushes its windowed reliable burst. The
// negative control runs the identical burst with the shrunk window
// lifted (LiftPausedWindow) and must show the window-sized backlog the
// hook removes.
func TestPausedWindowBoundsHostQueue(t *testing.T) {
	const (
		blasters = 4
		blast    = 200 // background frames per blaster
		burst    = 64  // measured sender's reliable messages
		msg      = 1400
	)
	run := func(paced bool) (maxQueued int, pauseStalls int64, pauses int64) {
		prof := simnet.DefaultProfile()
		prof.Ethernet.SwitchQueueCap = 8 // small egress: the funnel pauses early
		prof.RecvRing = 2048             // hold the whole burst: ring-overflow resends would blur the queue metric
		n := blasters + 2                // rank 0: receiver, rank 1: measured, 2..: blasters
		nw := simnet.New(n, simnet.Switch, prof)
		if !paced {
			nw.LiftPausedWindow()
		}
		fns := make([]func(ep *simnet.Endpoint) error, n)
		fns[0] = func(ep *simnet.Endpoint) error {
			ep.Proc().Sleep(100 * sim.Millisecond)
			for {
				_, ok, err := ep.RecvTimeout(int64(60 * sim.Millisecond))
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
		}
		fns[1] = func(ep *simnet.Endpoint) error {
			// Let the blasters saturate the port first, so the pause is
			// already holding when the reliable burst starts.
			ep.Proc().Sleep(2 * sim.Millisecond)
			for k := 0; k < burst; k++ {
				err := ep.SendReliable(0, transport.Message{
					Class:   transport.ClassData,
					Payload: make([]byte, msg),
				})
				if err != nil {
					return err
				}
			}
			return nil
		}
		for r := 2; r < n; r++ {
			fns[r] = func(ep *simnet.Endpoint) error {
				for k := 0; k < blast; k++ {
					err := ep.Send(0, transport.Message{
						Class:   transport.ClassData,
						Payload: make([]byte, msg),
					})
					if err != nil {
						return err
					}
				}
				return nil
			}
		}
		if err := nw.Run(fns); err != nil {
			t.Fatal(err)
		}
		if drops := nw.SilentDrops(); drops != 0 {
			t.Fatalf("%d silent drops", drops)
		}
		return nw.Endpoint(1).NIC().Stats.MaxQueued, nw.Stats.Stream.PauseStalls.Load(), nw.SwitchStats().PauseEvents
	}

	paced, stalls, pauses := run(true)
	if pauses == 0 {
		t.Fatal("the burst never triggered flow control; the scenario is vacuous")
	}
	if stalls == 0 {
		t.Fatal("the shrunk window never blocked a sender; the hook is vacuous")
	}
	unpaced, _, _ := run(false)

	// The paced sender's host backlog must stay near the paused window
	// (plus the handful of frames admitted before the first pause and
	// the stream's own probe frames); the unpaced one queues most of
	// the window.
	if paced > 10 {
		t.Errorf("paused-window pacing still queued %d frames at the NIC (want <= 10)", paced)
	}
	if unpaced < 4*paced {
		t.Errorf("negative control queued only %d frames vs %d paced — the hook changed nothing", unpaced, paced)
	}
	t.Logf("NIC queue high watermark: %d frames paced (%d pause stalls) vs %d unpaced", paced, stalls, unpaced)
}

// TestPausedWindowManyStreams drives the admission hook with many
// concurrent streams sharing one NIC. The pause signal is per-NIC, not
// per-stream: while the funnel at the hot receiver holds the sender's
// port paused, admissions on EVERY stream — including those to idle
// receivers whose ports are empty — must shrink to the paused window,
// because a paused NIC transmits nothing and each admitted message sits
// in host memory regardless of destination. The backlog bound is
// therefore streams x paused window, not streams x window.
func TestPausedWindowManyStreams(t *testing.T) {
	const (
		blasters = 4
		blast    = 200
		burst    = 32 // reliable messages per stream
		idles    = 3  // idle receivers: streams beyond the hot one
		msg      = 1400
	)
	streams := idles + 1
	run := func(paced bool) (maxQueued int, pauseStalls int64) {
		prof := simnet.DefaultProfile()
		prof.Ethernet.SwitchQueueCap = 8
		prof.RecvRing = 2048
		n := blasters + 2 + idles // 0: hot receiver, 1: sender, 2..: blasters, rest: idle receivers
		nw := simnet.New(n, simnet.Switch, prof)
		if !paced {
			nw.LiftPausedWindow()
		}
		fns := make([]func(ep *simnet.Endpoint) error, n)
		drain := func(ep *simnet.Endpoint) error {
			ep.Proc().Sleep(100 * sim.Millisecond)
			for {
				_, ok, err := ep.RecvTimeout(int64(60 * sim.Millisecond))
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
		}
		fns[0] = drain
		for r := blasters + 2; r < n; r++ {
			fns[r] = drain
		}
		fns[1] = func(ep *simnet.Endpoint) error {
			ep.Proc().Sleep(2 * sim.Millisecond)
			// Round-robin across the streams, so all of them carry
			// in-flight messages while the NIC is paused.
			for k := 0; k < burst; k++ {
				dsts := []int{0}
				for r := blasters + 2; r < n; r++ {
					dsts = append(dsts, r)
				}
				for _, dst := range dsts {
					err := ep.SendReliable(dst, transport.Message{
						Class:   transport.ClassData,
						Payload: make([]byte, msg),
					})
					if err != nil {
						return err
					}
				}
			}
			return nil
		}
		for r := 2; r < blasters+2; r++ {
			fns[r] = func(ep *simnet.Endpoint) error {
				for k := 0; k < blast; k++ {
					err := ep.Send(0, transport.Message{
						Class:   transport.ClassData,
						Payload: make([]byte, msg),
					})
					if err != nil {
						return err
					}
				}
				return nil
			}
		}
		if err := nw.Run(fns); err != nil {
			t.Fatal(err)
		}
		if drops := nw.SilentDrops(); drops != 0 {
			t.Fatalf("%d silent drops", drops)
		}
		return nw.Endpoint(1).NIC().Stats.MaxQueued, nw.Stats.Stream.PauseStalls.Load()
	}

	paced, stalls := run(true)
	if stalls == 0 {
		t.Fatal("the shrunk window never blocked the sender; the scenario is vacuous")
	}
	unpaced, _ := run(false)

	// Bound: streams x paused window, plus the frames admitted before
	// the first pause and the stream's own control traffic.
	bound := streams*2 + 8
	if paced > bound {
		t.Errorf("%d streams queued %d frames at the paused NIC (want <= %d)", streams, paced, bound)
	}
	if unpaced < 3*paced {
		t.Errorf("negative control queued only %d frames vs %d paced — the hook changed nothing", unpaced, paced)
	}
	t.Logf("%d streams: %d frames queued paced (%d pause stalls) vs %d unpaced", streams, paced, stalls, unpaced)
}
