package core_test

// Tests for the pipelined round engine: the overlap must hide scout
// latency without ever weakening the gating invariant (round r's data is
// released only after every rank has scouted for round r), and the
// counterexample shows what goes wrong when rounds free-run behind a
// single up-front synchronization instead.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestPipelinedStrictLaggingRankNeverLoses is the gating proof: under
// strict posted-receive semantics a rank that enters 2 ms late must not
// cost a fragment — round overlap never releases data the laggard has
// not scouted for — and the collective must therefore take at least the
// lag, because every round's multicast waited on the laggard's scout.
func TestPipelinedStrictLaggingRankNeverLoses(t *testing.T) {
	const lag = 2 * sim.Millisecond
	for _, n := range []int{4, 6, 8} {
		for _, chunk := range []int{1500, 6000} {
			n, chunk := n, chunk
			t.Run(fmt.Sprintf("n=%d/chunk=%d", n, chunk), func(t *testing.T) {
				prof := simnet.DefaultProfile()
				prof.StrictPosted = true
				var finish int64
				nw, err := cluster.RunSim(n, simnet.Switch, prof,
					core.Algorithms(core.BinaryPipelined), func(c *mpi.Comm) error {
						if c.Rank() == n/2 {
							cluster.SimComm(c).Proc().Sleep(lag)
						}
						send := bytes.Repeat([]byte{byte(c.Rank() + 1)}, chunk)
						recv := make([]byte, n*chunk)
						if err := c.Allgather(send, recv); err != nil {
							return err
						}
						for r := 0; r < n; r++ {
							if recv[r*chunk] != byte(r+1) {
								return fmt.Errorf("rank %d chunk %d corrupted", c.Rank(), r)
							}
						}
						if c.Now() > finish {
							finish = c.Now()
						}
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				if nw.Stats.McastDropsNotPosted != 0 {
					t.Fatalf("pipelined gating lost %d multicast fragments", nw.Stats.McastDropsNotPosted)
				}
				if finish < int64(lag) {
					t.Fatalf("finished at %d ns, before the laggard's %d ns lag — data was released ungated", finish, lag)
				}
			})
		}
	}
}

// TestPipelinedStrictAllSizes is the generalization of PR 2's sub-frame
// envelope test, which pinned a loss window below one Ethernet frame per
// round: a sub-frame multicast — a single fragment arriving at one
// instant — could land inside a receiver's unposted scout-forwarding
// send for the overlapped next-round gather. The engine now closes that
// window structurally (linear gathers for overlapped sub-frame rounds,
// the previous sender seated as a direct leaf of tree gathers, the next
// sender's slice transmitted last in sliced rounds, and a scout-frame of
// sender pacing), so the pipelined schedule must be loss-free under
// strict posted-receive semantics at EVERY payload size, with a lagging
// rank, for both the whole-buffer (allgather) and sliced (alltoall)
// round forms — and must still take at least the lag, proving the data
// stayed gated.
func TestPipelinedStrictAllSizes(t *testing.T) {
	const lag = 2 * sim.Millisecond
	for _, n := range []int{2, 4, 6, 8} {
		for _, chunk := range []int{0, 1, 250, 700, 1471, 1500, 4000} {
			for _, op := range []string{"allgather", "alltoall"} {
				n, chunk, op := n, chunk, op
				t.Run(fmt.Sprintf("%s/n=%d/chunk=%d", op, n, chunk), func(t *testing.T) {
					prof := simnet.DefaultProfile()
					prof.StrictPosted = true
					var finish int64
					nw, err := cluster.RunSim(n, simnet.Switch, prof,
						core.Algorithms(core.BinaryPipelined), func(c *mpi.Comm) error {
							if c.Rank() == c.Size()/2 {
								cluster.SimComm(c).Proc().Sleep(lag)
							}
							var err error
							if op == "alltoall" {
								send := make([]byte, n*chunk)
								recv := make([]byte, n*chunk)
								err = c.Alltoall(send, recv)
							} else {
								send := make([]byte, chunk)
								recv := make([]byte, n*chunk)
								err = c.Allgather(send, recv)
							}
							if err != nil {
								return err
							}
							if c.Now() > finish {
								finish = c.Now()
							}
							return nil
						})
					if err != nil {
						t.Fatal(err)
					}
					if nw.Stats.McastDropsNotPosted != 0 {
						t.Fatalf("pipelined overlap lost %d multicast fragments", nw.Stats.McastDropsNotPosted)
					}
					if n > 1 && finish < int64(lag) {
						t.Fatalf("finished at %d ns, before the laggard's %d ns lag — data was released ungated", finish, lag)
					}
				})
			}
		}
	}
}

// TestOneShotGatingLosesMidStream is the counterexample the per-round
// scouts exist for: gate the rounds once up front (a barrier) and then
// free-run the multicasts, and a rank that is merely busy between rounds
// loses the next round's data under strict semantics — the collective
// deadlocks. The pipelined engine overlaps rounds but still gates each
// one, so the same mid-stream stall merely delays the affected round.
func TestOneShotGatingLosesMidStream(t *testing.T) {
	const n, chunk = 4, 2000
	oneShot := func(c *mpi.Comm, send, recv []byte) error {
		size := c.Size()
		m := len(send)
		copy(recv[c.Rank()*m:], send)
		// One synchronization for the whole sequence, then ungated rounds.
		if err := c.Barrier(); err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			cc := c.BeginColl()
			if c.Rank() == r {
				if err := cc.Multicast(mpi.Whole, recv[r*m:(r+1)*m], transport.ClassData); err != nil {
					return err
				}
				continue
			}
			if c.Rank() == 2 && r == 1 {
				// Busy computing between rounds: exactly the stall the
				// per-round scout gather would have reported upstream.
				cluster.SimComm(c).Proc().Sleep(1 * sim.Millisecond)
			}
			mm, err := cc.RecvMulticast(mpi.Whole)
			if err != nil {
				return err
			}
			copy(recv[r*m:(r+1)*m], mm.Payload)
		}
		return nil
	}
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	nw, err := cluster.RunSim(n, simnet.Switch, prof,
		mpi.Algorithms{Allgather: oneShot, Barrier: core.Barrier}, func(c *mpi.Comm) error {
			send := make([]byte, chunk)
			recv := make([]byte, n*chunk)
			return c.Allgather(send, recv)
		})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock from the ungated round, got %v", err)
	}
	if nw.Stats.McastDropsNotPosted == 0 {
		t.Fatal("expected unposted multicast drops")
	}

	// The gated engine under the same mid-stream stall: the pipelined
	// allgather cannot inject a sleep between rounds from outside, but
	// the equivalent adversity — a rank that is slow to enter every
	// collective — completes losslessly (see also the strict conformance
	// and TestPipelinedStrictLaggingRankNeverLoses).
	nw, err = cluster.RunSim(n, simnet.Switch, prof,
		core.Algorithms(core.BinaryPipelined), func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				cluster.SimComm(c).Proc().Sleep(1 * sim.Millisecond)
			}
			send := make([]byte, chunk)
			recv := make([]byte, n*chunk)
			return c.Allgather(send, recv)
		})
	if err != nil {
		t.Fatalf("gated pipelined rounds failed under the same stall: %v", err)
	}
	if nw.Stats.McastDropsNotPosted != 0 {
		t.Fatalf("gated pipelined rounds lost %d fragments", nw.Stats.McastDropsNotPosted)
	}
}

// TestPipelinedBeatsSequentialOnSwitch encodes the acceptance criterion:
// overlapping round r+1's scout gather with round r's data multicast
// must shorten the alltoall on the switch topology, and the allgather on
// the hub — on the switch the allgather runs no rounds but one burst.
func TestPipelinedBeatsSequentialOnSwitch(t *testing.T) {
	measure := func(algs mpi.Algorithms, n, chunk int, alltoall bool) int64 {
		var worst int64
		topo := simnet.Hub
		if alltoall {
			topo = simnet.Switch
		}
		_, err := cluster.RunSim(n, topo, simnet.DefaultProfile(), algs,
			func(c *mpi.Comm) error {
				send := make([]byte, n*chunk)
				recv := make([]byte, n*chunk)
				var err error
				if alltoall {
					err = c.Alltoall(send, recv)
				} else {
					err = c.Allgather(send[:chunk], recv)
				}
				if err != nil {
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
	for _, n := range []int{4, 8} {
		for _, chunk := range []int{250, 1500, 4000} {
			for _, alltoall := range []bool{false, true} {
				seq := measure(core.Algorithms(core.Binary), n, chunk, alltoall)
				pip := measure(core.Algorithms(core.BinaryPipelined), n, chunk, alltoall)
				op := "allgather"
				if alltoall {
					op = "alltoall"
				}
				if pip >= seq {
					t.Errorf("%s n=%d chunk=%d: pipelined (%dns) not faster than sequential (%dns)", op, n, chunk, pip, seq)
				}
			}
		}
	}
}
