package coretest

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// This file is the deterministic chaos harness: table-driven fault
// scenarios (kill a rank at event time t during collective c, stall a
// straggler, partition-then-heal an uplink) asserting the failure
// contract on every live rank — a correct result or a RankFailedError
// naming the true dead set, never a hang, never a silently wrong
// answer — and, for kill scenarios, that Comm.Shrink plus a rerun on
// the survivors matches the oracle.

// Kill schedules rank Rank's death at event time At.
type Kill struct {
	Rank int
	At   sim.Duration
}

// Stall schedules a compute stall: rank Rank loses Delay of CPU
// starting at event time At, while staying fully alive on the wire.
type Stall struct {
	Rank      int
	At, Delay sim.Duration
}

// Cut partitions segment Seg's uplink during the event-time window
// [From, To): nothing crosses the switch fabric in either direction.
type Cut struct {
	Seg      int
	From, To sim.Duration
}

// Scenario is one chaos configuration. The zero value of the fault
// slices means a fault-free run (useful as a control).
type Scenario struct {
	Name  string
	N     int
	Chunk int
	Root  int
	Op    string // one of Ops
	Topo  simnet.Topology
	// Prof overrides the default profile (nil: simnet.DefaultProfile).
	Prof *simnet.Profile

	Kills  []Kill
	Stalls []Stall
	Cuts   []Cut

	// Shrink, for kill scenarios, makes every survivor build the
	// survivor communicator and rerun the op on it against the oracle.
	Shrink bool
}

// chaosOutcome records what one rank's program observed.
type chaosOutcome struct {
	err       error // CheckOp result on the original communicator
	shrunk    []int // world group of the shrunken communicator
	shrinkErr error
	rerunErr  error
}

// RunChaos executes one scenario under the given algorithm set and
// asserts the failure contract. The simulation itself completing is the
// no-hang guarantee: a blocked rank with an empty event queue is a
// DeadlockError from the engine, and a rank looping forever never lets
// Run return.
func RunChaos(t *testing.T, sc Scenario, algs mpi.Algorithms) {
	t.Helper()
	prof := simnet.DefaultProfile()
	if sc.Prof != nil {
		prof = *sc.Prof
	}
	nw := simnet.New(sc.N, sc.Topo, prof)
	for _, k := range sc.Kills {
		nw.KillRank(k.Rank, k.At)
	}
	for _, s := range sc.Stalls {
		nw.Straggle(s.Rank, s.At, s.Delay)
	}
	for _, c := range sc.Cuts {
		nw.PartitionUplink(c.Seg, c.From, c.To)
	}

	dead := make(map[int]bool, len(sc.Kills))
	for _, k := range sc.Kills {
		dead[k.Rank] = true
	}
	wantDead := make([]int, 0, len(dead))
	for w := range dead {
		wantDead = append(wantDead, w)
	}
	sort.Ints(wantDead)
	wantSurvivors := make([]int, 0, sc.N)
	for w := 0; w < sc.N; w++ {
		if !dead[w] {
			wantSurvivors = append(wantSurvivors, w)
		}
	}

	var lastKill sim.Duration
	for _, k := range sc.Kills {
		if k.At > lastKill {
			lastKill = k.At
		}
	}

	outcomes := make([]chaosOutcome, sc.N)
	fns := make([]func(*simnet.Endpoint) error, sc.N)
	for i := range fns {
		rank := i
		fns[i] = func(ep *simnet.Endpoint) error {
			rt := mpi.NewRuntime(ep)
			if err := rt.SetFailureDetection(mpi.FailureOptions{}); err != nil {
				return err
			}
			c, err := mpi.World(rt, algs)
			if err != nil {
				if dead[rank] {
					outcomes[rank].err = err
					return nil
				}
				return fmt.Errorf("world: %w", err)
			}
			// The killed rank's own program errors out (or even
			// finishes, for a late kill); either way its outcome is
			// recorded, not returned — death is not a harness failure.
			outcomes[rank].err = CheckOp(c, sc.Op, sc.Chunk, sc.Root)
			if dead[rank] || !sc.Shrink || len(sc.Kills) == 0 {
				return nil
			}
			// A survivor whose collective completed before the (last)
			// kill even landed would find nothing dead yet: shrink only
			// once every scheduled kill has fired, so all survivors
			// derive the same dead set.
			if wait := int64(lastKill) + 1_000_000 - ep.Now(); wait > 0 {
				ep.Proc().Sleep(wait)
			}
			nc, err := c.Shrink()
			if err != nil {
				outcomes[rank].shrinkErr = err
				return nil
			}
			grp := make([]int, nc.Size())
			for r := range grp {
				grp[r] = nc.WorldRank(r)
			}
			outcomes[rank].shrunk = grp
			newRoot := 0
			for r, w := range grp {
				if w == sc.Root {
					newRoot = r
				}
			}
			outcomes[rank].rerunErr = CheckOp(nc, sc.Op, sc.Chunk, newRoot)
			return nil
		}
	}

	if err := nw.Run(fns); err != nil {
		t.Fatalf("%s: simulation failed: %v", sc.Name, err)
	}

	for r := 0; r < sc.N; r++ {
		o := outcomes[r]
		if dead[r] {
			continue // a killed rank's own outcome is unconstrained
		}
		if o.err != nil {
			rf, ok := mpi.AsRankFailed(o.err)
			if !ok {
				t.Errorf("%s: live rank %d: untyped failure: %v", sc.Name, r, o.err)
				continue
			}
			if len(sc.Kills) == 0 {
				t.Errorf("%s: live rank %d: false positive %v with nothing dead", sc.Name, r, rf)
				continue
			}
			if !equalInts(rf.Ranks, wantDead) {
				t.Errorf("%s: live rank %d: dead set %v, want %v", sc.Name, r, rf.Ranks, wantDead)
			}
		}
		if !sc.Shrink || len(sc.Kills) == 0 {
			continue
		}
		if o.shrinkErr != nil {
			t.Errorf("%s: rank %d: shrink: %v", sc.Name, r, o.shrinkErr)
			continue
		}
		if !equalInts(o.shrunk, wantSurvivors) {
			t.Errorf("%s: rank %d: shrunken group %v, want %v", sc.Name, r, o.shrunk, wantSurvivors)
		}
		if o.rerunErr != nil {
			t.Errorf("%s: rank %d: rerun on survivors: %v", sc.Name, r, o.rerunErr)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
