package core_test

// The converging-gather regression: GatherMcast's release gate lets all
// N-1 senders transmit their chunks at once, so ceil(M/T)·(N-1) frames
// converge on the root's switch port. The switch's 64-frame egress queue
// once silently tail-dropped the excess and — point-to-point frames
// having no repair protocol then — the gather deadlocked, which is why
// the loss sweeps capped their fragment grids. Two independent layers now
// remove the cap, and each is proven separately here:
//
//   - switch flow control: the queue never overflows, the senders are
//     PAUSEd instead, and not one frame is dropped;
//   - the reliable p2p stream: chunk fragments dropped at the root are
//     retransmitted until the gather completes.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
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
					if !bytes.Equal(recv[r*chunk:(r+1)*chunk], bytes.Repeat([]byte{byte(r + 1)}, chunk)) {
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
		// The headline: under the default profile the burst completes
		// with zero drops of any kind — the senders are backpressured
		// instead.
		nw, err := convergingGather(t, simnet.DefaultProfile(), n, chunk)
		if err != nil {
			t.Fatal(err)
		}
		st := nw.SwitchStats()
		if drops := nw.SilentDrops(); drops != 0 {
			t.Fatalf("%d silent drops", drops)
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

	t.Run("stream-repairs-dropped-chunks", func(t *testing.T) {
		// Every fourth fragment of every chunk is lost on its first way
		// into the root: the reliable stream's probes retransmit exactly
		// the dropped fragments until the gather completes with every
		// chunk intact (convergingGather checks them).
		prof := simnet.DefaultProfile()
		prof.DropP2P = func(dst int, f transport.Fragment) bool {
			phase, ok := mpi.CollPhase(f.Msg)
			return dst == 0 && ok && phase == core.PhaseChunk && f.Msg.Class == transport.ClassData &&
				f.Index%4 == 0 && !f.Repair
		}
		nw, err := convergingGather(t, prof, n, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(5 * (n - 1)); nw.Stats.InjectedP2PLosses != want {
			t.Fatalf("dropped %d chunk fragments, want %d", nw.Stats.InjectedP2PLosses, want)
		}
		if nw.Stats.Stream.Retransmits.Load() == 0 {
			t.Fatal("the stream should have repaired the dropped chunks")
		}
		t.Logf("%d dropped chunk fragments repaired by %d retransmitted fragments",
			nw.Stats.InjectedP2PLosses, nw.Stats.Stream.Retransmits.Load())
	})
}
