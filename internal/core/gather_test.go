package core_test

// The converging-gather regression: GatherMcast's release gate lets all
// N-1 senders transmit their chunks at once, so ceil(M/T)·(N-1) frames
// converge on the root's switch port. Before this PR the switch's
// 64-frame egress queue silently tail-dropped the excess and — point-to-
// point frames having no repair protocol — the gather deadlocked, which
// is why the loss sweeps capped their fragment grids. Two independent
// layers now remove the cap, and each is proven separately here:
//
//   - switch flow control (the default): the queue never overflows, the
//     senders are PAUSEd instead, and not one frame is dropped;
//   - the reliable p2p stream: even with flow control off, tail-dropped
//     chunks are retransmitted until the gather completes.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// convergingGather runs GatherMcast with (N-1)·frags fragments
// converging on the root's port and returns the network for counter
// assertions.
func convergingGather(t *testing.T, prof simnet.Profile, n, chunk int) (*simnet.Network, error) {
	t.Helper()
	return cluster.RunSim(n, simnet.Switch, prof, core.Algorithms(core.Binary),
		func(c *mpi.Comm) error {
			send := bytes.Repeat([]byte{byte(c.Rank() + 1)}, chunk)
			var recv []byte
			if c.Rank() == 0 {
				recv = make([]byte, n*chunk)
			}
			if err := c.Gather(send, recv, 0); err != nil {
				return err
			}
			if c.Rank() == 0 {
				for r := 0; r < n; r++ {
					if recv[r*chunk] != byte(r+1) || recv[(r+1)*chunk-1] != byte(r+1) {
						return fmt.Errorf("chunk from rank %d corrupted", r)
					}
				}
			}
			return nil
		})
}

func TestGatherConvergingBurstBeyondQueueCap(t *testing.T) {
	// 20 fragments per chunk × 5 senders = 100 frames converging on the
	// root's port — far beyond the 64-frame egress queue.
	const n = 6
	chunk := 20 * simnet.MaxFragPayload
	frags := 20 * (n - 1)
	if cap := simnet.DefaultProfile().Ethernet.SwitchQueueCap; frags <= cap {
		t.Fatalf("test burst of %d frames does not exceed the %d-frame queue", frags, cap)
	}

	t.Run("flow-control", func(t *testing.T) {
		// The headline: under the default profile (switch flow control
		// on) the burst completes with zero drops of any kind — the
		// senders are backpressured instead.
		nw, err := convergingGather(t, simnet.DefaultProfile(), n, chunk)
		if err != nil {
			t.Fatal(err)
		}
		st := nw.SwitchStats()
		if st.QueueDrops != 0 {
			t.Fatalf("silent egress drops under flow control: %d", st.QueueDrops)
		}
		if nw.Stats.Stream.Retransmits.Load() != 0 {
			t.Fatalf("flow control should make retransmission unnecessary, got %d", nw.Stats.Stream.Retransmits.Load())
		}
		if st.PauseEvents == 0 {
			t.Fatal("a 100-frame burst into a 64-frame queue must exert backpressure")
		}
		if st.MaxQueueDepth > simnet.DefaultProfile().Ethernet.SwitchQueueCap {
			t.Fatalf("queue depth %d exceeded the cap", st.MaxQueueDepth)
		}
		t.Logf("high watermark %d frames, %d pauses", st.MaxQueueDepth, st.PauseEvents)
	})

	t.Run("stream-repairs-tail-drops", func(t *testing.T) {
		// Flow control off: the switch tail-drops the burst's excess, and
		// the reliable stream's probes retransmit exactly the dropped
		// chunks until the gather completes anyway.
		prof := simnet.DefaultProfile()
		prof.Ethernet.SwitchFlowControl = false
		nw, err := convergingGather(t, prof, n, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if nw.SwitchStats().QueueDrops == 0 {
			t.Fatal("expected tail drops with flow control off")
		}
		if nw.Stats.Stream.Retransmits.Load() == 0 {
			t.Fatal("the stream should have repaired the dropped chunks")
		}
		t.Logf("%d tail drops repaired by %d retransmitted fragments",
			nw.SwitchStats().QueueDrops, nw.Stats.Stream.Retransmits.Load())
	})
}
