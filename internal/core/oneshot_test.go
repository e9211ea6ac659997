package core_test

// The counterexample for gating: what goes wrong when multicasts
// free-run behind a single up-front synchronization while receivers
// have posted nothing for them.

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestOneShotGatingLosesMidStream is the counterexample the scouts exist
// for: gate the rounds once up front (a barrier) and then free-run the
// multicasts, and a rank that is merely busy between rounds loses the
// next round's data under strict semantics — the collective deadlocks.
// The burst also gates once up front, but it survives the same stall:
// every rank posts its standing descriptors (Comm.PostRecvs) for all
// N-1 multicasts before it joins the handshake, so a multicast that
// reaches a busy rank finds a descriptor waiting. The one-shot copy
// posts nothing until it calls RecvMulticast.
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

	// The burst under the same mid-stream stall: its allgather cannot
	// inject a sleep between slots from outside, but the equivalent
	// adversity — a rank that is slow to enter the collective — completes
	// losslessly (see also TestBurstStrictEveryLaggard).
	nw, err = cluster.RunSim(n, simnet.Switch, prof,
		core.Algorithms(core.Binary), func(c *mpi.Comm) error {
			if c.Rank() == 2 {
				cluster.SimComm(c).Proc().Sleep(1 * sim.Millisecond)
			}
			send := make([]byte, chunk)
			recv := make([]byte, n*chunk)
			return c.Allgather(send, recv)
		})
	if err != nil {
		t.Fatalf("the burst failed under the same stall: %v", err)
	}
	if nw.Stats.McastDropsNotPosted != 0 {
		t.Fatalf("the burst lost %d fragments", nw.Stats.McastDropsNotPosted)
	}
}
