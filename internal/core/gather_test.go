package core_test

// The converging-gather regression: a gather's N-1 senders transmit
// their chunks at once — behind the release of the release-gated gather,
// or on entry in package baseline's point-to-point one, which the binary
// set runs at this N — so ceil(M/T)·(N-1) frames converge on the root's
// switch port. The switch's 64-frame egress queue
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

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// convergingGather runs the binary set's gather with (N-1)·frags fragments
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
		// chunk intact (convergingGather checks them). The point-to-point
		// gather sends its chunks on its operation's phase 0; the
		// release-gated one sent them on core.PhaseChunk, which the
		// filter matched until the binary set's gather became point to
		// point at this N.
		prof := simnet.DefaultProfile()
		prof.DropP2P = func(dst int, f transport.Fragment) bool {
			phase, ok := mpi.CollPhase(f.Msg)
			return dst == 0 && ok && phase == 0 && f.Msg.Class == transport.ClassData &&
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

// TestGatherRingBound holds the bound of the point-to-point gathers
// (core's plan): a receiver posts nothing before the chunks
// arrive, so they queue in its 256-message receive ring, and the
// operation that follows may queue as many again — here a second gather
// to a root that enters 50 ms late. The binary set runs package
// baseline's gather up to 128 ranks on a switch, where the two gathers
// queue 254 chunks, and the release-gated gather from 129, whose chunks
// wait for the root. The two-level set's gather at N=256 on shared
// uplinks (fanout 4) queues (F_root-1) + (S-1) = 66 messages a gather at
// the root, and sends no scouts. None may lose a message to the ring (a
// silent drop); package baseline's gather, which has no bound, loses
// some at 130 ranks.
func TestGatherRingBound(t *testing.T) {
	const chunk = 64
	run := func(algs mpi.Algorithms, n int, topo simnet.Topology, prof simnet.Profile) *simnet.Network {
		t.Helper()
		nw, err := cluster.RunSim(n, topo, prof, algs, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				cluster.SimComm(c).Proc().Sleep(50 * sim.Millisecond)
			}
			for round := range 2 {
				send := bytes.Repeat([]byte{byte(c.Rank() + round)}, chunk)
				var recv []byte
				if c.Rank() == 0 {
					recv = make([]byte, n*chunk)
				}
				if err := c.Gather(send, recv, 0); err != nil {
					return err
				}
				for r := 0; c.Rank() == 0 && r < n; r++ {
					if !bytes.Equal(recv[r*chunk:(r+1)*chunk], bytes.Repeat([]byte{byte(r + round)}, chunk)) {
						return fmt.Errorf("gather %d: chunk from rank %d corrupted", round, r)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		return nw
	}
	shared := simnet.DefaultProfile()
	shared.UplinkFanout = 4
	for _, cs := range []struct {
		name   string
		algs   mpi.Algorithms
		n      int
		topo   simnet.Topology
		prof   simnet.Profile
		scouts int64 // of the two gathers
	}{
		{"mcast-binary", core.Algorithms(core.Binary), 128, simnet.Switch, simnet.DefaultProfile(), 0},       // point to point
		{"mcast-binary", core.Algorithms(core.Binary), 129, simnet.Switch, simnet.DefaultProfile(), 2 * 128}, // release-gated: N-1 scouts each
		{"mcast-2level", core.TwoLevelAlgorithms(), 256, simnet.SwitchShared, shared, 0},                     // two levels, point to point
	} {
		nw := run(cs.algs, cs.n, cs.topo, cs.prof)
		if got := nw.Wire.Frames(transport.ClassScout); got != cs.scouts {
			t.Errorf("%s N=%d: %d scout frames, want %d", cs.name, cs.n, got, cs.scouts)
		}
		if drops := nw.SilentDrops(); drops != 0 {
			t.Errorf("%s N=%d: %d silent drops", cs.name, cs.n, drops)
		}
	}
	if drops := run(baseline.Algorithms(), 130, simnet.Switch, simnet.DefaultProfile()).SilentDrops(); drops == 0 {
		t.Error("N=130: package baseline's gathers overflowed no ring; the scenario no longer loads the root")
	}
}

// TestGatedGatherRepairsItsRelease runs mcast-resilient's release-gated
// gather (plan: past N=128) at N=129 on a switch with the release's first
// transmission lost at three ranks: each must ask for it, and the root
// answer as every round's sender does (repairSend), so the gather
// returns every chunk with NACK frames on the wire and nothing lost to a
// ring. TestGatherRingBound runs the same schedule lossless.
func TestGatedGatherRepairsItsRelease(t *testing.T) {
	const n, chunk = 129, 64
	lost := map[int]bool{5: true, 64: true, 128: true}
	prof := simnet.DefaultProfile()
	prof.DropFrag = func(dst int, f transport.Fragment) bool {
		return lost[dst] && f.Msg.Class == transport.ClassControl && !f.Repair
	}
	nw, err := cluster.RunSim(n, simnet.Switch, prof, core.ResilientAlgorithms(), func(c *mpi.Comm) error {
		send := bytes.Repeat([]byte{byte(c.Rank() + 1)}, chunk)
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, n*chunk)
		}
		if err := c.Gather(send, recv, 0); err != nil {
			return err
		}
		for r := 0; c.Rank() == 0 && r < n; r++ {
			if !bytes.Equal(recv[r*chunk:(r+1)*chunk], bytes.Repeat([]byte{byte(r + 1)}, chunk)) {
				return fmt.Errorf("chunk from rank %d corrupted", r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Stats.InjectedLosses; got != int64(len(lost)) {
		t.Errorf("%d release fragments lost, want %d", got, len(lost))
	}
	if got := nw.Wire.Frames(transport.ClassScout); got != n-1 {
		t.Errorf("%d scout frames, want N-1 = %d: the release-gated gather did not run", got, n-1)
	}
	if nacks := nw.Wire.Frames(transport.ClassNack); nacks == 0 {
		t.Error("no NACK frames: nobody asked for the lost release")
	}
	if drops := nw.SilentDrops(); drops != 0 {
		t.Errorf("%d silent drops", drops)
	}
}
