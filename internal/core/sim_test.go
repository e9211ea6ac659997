package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestFrameCountFormulas verifies the paper's §3 analysis (experiment
// a3 in bench/figures.go) against the simulator's wire counters.
func TestFrameCountFormulas(t *testing.T) {
	const frag = simnet.MaxFragPayload
	for _, n := range []int{2, 4, 7, 9} {
		for _, msg := range []int{0, 100, 2000, 5000} {
			n, msg := n, msg
			t.Run(fmt.Sprintf("n=%d/M=%d", n, msg), func(t *testing.T) {
				// Multicast (binary): N-1 scout frames + ceil(M/T) data.
				nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
					core.Algorithms(core.Binary), func(c *mpi.Comm) error {
						buf := make([]byte, msg)
						return c.Bcast(buf, 0)
					})
				if err != nil {
					t.Fatal(err)
				}
				wantData := int64(trace.FramesForMessage(msg, frag))
				if got := nw.Wire.Frames(transport.ClassScout); got != int64(n-1) {
					t.Errorf("multicast scouts = %d, want N-1 = %d", got, n-1)
				}
				if got := nw.Wire.Frames(transport.ClassData); got != wantData {
					t.Errorf("multicast data frames = %d, want ceil(M/T) = %d", got, wantData)
				}

				// MPICH binomial: ceil(M/T)·(N-1) data frames, no scouts.
				nw, err = cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
					baseline.Algorithms(), func(c *mpi.Comm) error {
						buf := make([]byte, msg)
						return c.Bcast(buf, 0)
					})
				if err != nil {
					t.Fatal(err)
				}
				if got := nw.Wire.Frames(transport.ClassData); got != wantData*int64(n-1) {
					t.Errorf("mpich data frames = %d, want ceil(M/T)(N-1) = %d", got, wantData*int64(n-1))
				}
				if got := nw.Wire.Frames(transport.ClassScout); got != 0 {
					t.Errorf("mpich sent %d scouts", got)
				}
			})
		}
	}
}

// TestBarrierMessageCounts verifies 2(N-K)+K·log2(K) for the MPICH
// barrier and (N-1)+1 for the multicast barrier.
func TestBarrierMessageCounts(t *testing.T) {
	log2 := func(k int) int {
		l := 0
		for k > 1 {
			k >>= 1
			l++
		}
		return l
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9} {
		k := 1
		for k*2 <= n {
			k *= 2
		}
		// MPICH barrier: control messages.
		nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
			baseline.Algorithms(), func(c *mpi.Comm) error { return c.Barrier() })
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2*(n-k) + k*log2(k))
		if got := nw.Wire.Frames(transport.ClassControl); got != want {
			t.Errorf("n=%d: mpich barrier messages = %d, want 2(N-K)+K·log2K = %d", n, got, want)
		}

		// Multicast barrier: N-1 scouts + 1 multicast release.
		nw, err = cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(),
			core.Algorithms(core.Binary), func(c *mpi.Comm) error { return c.Barrier() })
		if err != nil {
			t.Fatal(err)
		}
		if got := nw.Wire.Frames(transport.ClassScout); got != int64(n-1) {
			t.Errorf("n=%d: multicast barrier scouts = %d, want %d", n, got, n-1)
		}
		wantRelease := int64(1)
		if n == 1 {
			wantRelease = 0
		}
		if got := nw.Wire.Frames(transport.ClassControl); got != wantRelease {
			t.Errorf("n=%d: release multicasts = %d, want %d", n, got, wantRelease)
		}
	}
}

// TestBarrierSemanticsVirtualTime uses the simulated clock for the
// strongest possible barrier check: no rank may leave the barrier before
// the last rank has entered it.
func TestBarrierSemanticsVirtualTime(t *testing.T) {
	for _, algs := range []struct {
		name string
		a    mpi.Algorithms
	}{
		{"multicast-binary", core.Algorithms(core.Binary)},
		{"multicast-linear", core.Algorithms(core.Linear)},
		{"mpich", baseline.Algorithms()},
	} {
		algs := algs
		t.Run(algs.name, func(t *testing.T) {
			const n = 7
			enter := make([]int64, n)
			exit := make([]int64, n)
			_, err := cluster.RunSim(n, simnet.Hub, simnet.DefaultProfile(), algs.a,
				func(c *mpi.Comm) error {
					// Stagger entries heavily.
					cluster.SimComm(c).Proc().Sleep(sim.Duration(c.Rank()) * 150 * sim.Microsecond)
					enter[c.Rank()] = c.Now()
					if err := c.Barrier(); err != nil {
						return err
					}
					exit[c.Rank()] = c.Now()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			var lastEnter, firstExit int64
			firstExit = 1 << 62
			for r := 0; r < n; r++ {
				if enter[r] > lastEnter {
					lastEnter = enter[r]
				}
				if exit[r] < firstExit {
					firstExit = exit[r]
				}
			}
			if firstExit < lastEnter {
				t.Fatalf("rank exited barrier at %dns before last entry at %dns", firstExit, lastEnter)
			}
		})
	}
}

// TestSlowReceiverNeverLosesWithScouts is the paper's central claim: the
// synchronization ensures a message is not lost because a receiving
// process is slower than the sender. StrictPosted gives multicast its
// sharpest loss semantics, and a rank dawdles before entering Bcast.
func TestSlowReceiverNeverLosesWithScouts(t *testing.T) {
	for _, mode := range []core.Mode{core.Binary, core.Linear} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			prof := simnet.DefaultProfile()
			prof.StrictPosted = true
			want := bytes.Repeat([]byte{0x5A}, 3000)
			nw, err := cluster.RunSim(5, simnet.Switch, prof,
				core.Algorithms(mode), func(c *mpi.Comm) error {
					if c.Rank() == 3 {
						// Slow receiver: busy long after the root wants
						// to send.
						cluster.SimComm(c).Proc().Sleep(2 * sim.Millisecond)
					}
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
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if nw.Stats.McastDropsNotPosted != 0 {
				t.Fatalf("scout protocol lost %d multicast fragments", nw.Stats.McastDropsNotPosted)
			}
		})
	}
}

// TestUnsafeBcastLosesToSlowReceiver demonstrates the failure mode
// (experiment A2): without scouts the multicast flies past the busy rank
// and the broadcast deadlocks.
func TestUnsafeBcastLosesToSlowReceiver(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	algs := mpi.Algorithms{Bcast: core.BcastUnsafe}
	nw, err := cluster.RunSim(3, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
		if c.Rank() == 2 {
			cluster.SimComm(c).Proc().Sleep(1 * sim.Millisecond)
		}
		buf := make([]byte, 100)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = 1
			}
		}
		return c.Bcast(buf, 0)
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock from lost multicast, got %v", err)
	}
	if nw.Stats.McastDropsNotPosted == 0 {
		t.Fatal("expected not-posted multicast drops")
	}
}

// TestAckBcastRecoversSlowReceiver shows the PVM-style protocol is
// correct (it retransmits until acknowledged) even though it is slow.
func TestAckBcastRecoversSlowReceiver(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	algs := core.AckAlgorithms()
	want := []byte("recovered")
	nw, err := cluster.RunSim(4, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
		if c.Rank() == 2 {
			cluster.SimComm(c).Proc().Sleep(2 * sim.Millisecond)
		}
		buf := make([]byte, len(want))
		if c.Rank() == 0 {
			copy(buf, want)
		}
		if err := c.Bcast(buf, 0); err != nil {
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
	if nw.Stats.McastDropsNotPosted == 0 {
		t.Fatal("expected the first multicast to be lost at the slow rank")
	}
	// The data was multicast more than once.
	if got := nw.Wire.Frames(transport.ClassData); got < 2 {
		t.Fatalf("data frames = %d, want retransmissions", got)
	}
}

// TestAckBcastRecoversRandomLoss exercises the protocol under injected
// fragment loss.
func TestAckBcastRecoversRandomLoss(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.LossRate = 0.2
	prof.Seed = 7
	algs := core.AckAlgorithms()
	want := bytes.Repeat([]byte{9}, 4000)
	_, err := cluster.RunSim(4, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBinaryFasterThanLinearAtScale: the binary gather needs log2(K)+1
// steps against the root's N-1 sequential receives, so by N=9 the binary
// variant should win (the paper anticipates exactly this).
func TestBinaryFasterThanLinearAtScale(t *testing.T) {
	measure := func(mode core.Mode) int64 {
		var worst int64
		_, err := cluster.RunSim(9, simnet.Switch, simnet.DefaultProfile(),
			core.Algorithms(mode), func(c *mpi.Comm) error {
				buf := make([]byte, 1000)
				if err := c.Bcast(buf, 0); err != nil {
					return err
				}
				if c.Now() > worst {
					worst = c.Now()
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	bin, lin := measure(core.Binary), measure(core.Linear)
	if bin > lin {
		t.Fatalf("binary (%dns) slower than linear (%dns) at N=9", bin, lin)
	}
}

// TestMulticastBeatsMPICHForLargeMessages checks the headline result in
// the simulator: above one Ethernet frame the multicast broadcast must
// beat the MPICH tree (paper Figs. 7-10).
func TestMulticastBeatsMPICHForLargeMessages(t *testing.T) {
	measure := func(algs mpi.Algorithms, size int) int64 {
		var worst int64
		_, err := cluster.RunSim(4, simnet.Switch, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				buf := make([]byte, size)
				if err := c.Bcast(buf, 0); err != nil {
					return err
				}
				if c.Now() > worst {
					worst = c.Now()
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	const size = 5000
	mcast := measure(core.Algorithms(core.Binary), size)
	mpich := measure(baseline.Algorithms(), size)
	if mcast >= mpich {
		t.Fatalf("multicast bcast (%dns) not faster than MPICH (%dns) at %d bytes", mcast, mpich, size)
	}
}
