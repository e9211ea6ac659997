package udpnet_test

// Chaos over real sockets: the failure-detection contract of the mpi
// layer exercised on the UDP transport. Wall-clock kill times are not
// reproducible, so kills fire at deterministic program points (the
// process-local kill switch flipped between collectives) instead of at
// timestamps; the assertions are the same as the simulator matrix —
// typed RankFailedError with the exact dead set, no hang, no silent
// wrong answer, and Shrink plus a rerun on the survivors matching the
// oracle. The straggler case doubles as the probe/ack race test at the
// suspicion boundary: a rank that is slow by several suspicion budgets
// but alive on the wire must never be declared dead.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/udpnet"
)

// chaosFailure is a detector tuning tight enough for a test but far
// above loopback RTTs (microseconds): 60 ms suspicion, 20 ms pings.
func chaosFailure() mpi.FailureOptions {
	return mpi.FailureOptions{
		Suspicion:   60 * time.Millisecond.Nanoseconds(),
		PingTimeout: 20 * time.Millisecond.Nanoseconds(),
	}
}

// runUDPChaos starts one goroutine per rank: each builds a runtime with
// failure detection, forms the world, runs fn, and returns its error.
func runUDPChaos(t *testing.T, n int, algs mpi.Algorithms, fn func(rank int, c *mpi.Comm) error) []error {
	t.Helper()
	failOnHang(t, 30*time.Second)
	nw, err := udpnet.New(testConfig(n))
	if err != nil {
		t.Fatalf("udpnet.New: %v", err)
	}
	defer nw.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rank := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := mpi.NewRuntime(nw.Endpoint(rank))
			if err := rt.SetFailureDetection(chaosFailure()); err != nil {
				errs[rank] = err
				return
			}
			c, err := mpi.World(rt, algs)
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = fn(rank, c)
		}()
	}
	wg.Wait()
	return errs
}

// TestUDPChaosKill kills one rank between two collectives: every live
// rank must finish the first op cleanly, get a RankFailedError naming
// exactly the victim from the second, then Shrink and rerun the op on
// the survivor communicator against the oracle.
func TestUDPChaosKill(t *testing.T) {
	requireMulticast(t)
	const n, victim, chunk = 5, 2, 900
	algs := core.ResilientAlgorithms()
	// "Between two collectives" has to hold at every rank, not only at
	// the victim: a collective returns rank by rank, and the victim's
	// own return says nothing about a peer still confirming the last
	// round. A peer whose repair probe expires there (scheduling delay
	// is enough) consults the failure detector, finds the victim dead
	// and fails the pre-kill op. The ranks are goroutines of one process,
	// so the victim waits until everyone is out of the first op.
	var preKill sync.WaitGroup
	preKill.Add(n)
	errs := runUDPChaos(t, n, algs, func(rank int, c *mpi.Comm) error {
		err := coretest.CheckOp(c, "allgather", chunk, 0)
		preKill.Done()
		if err != nil {
			return fmt.Errorf("pre-kill allgather: %w", err)
		}
		if rank == victim {
			preKill.Wait()
			c.Runtime().Endpoint().(*udpnet.Endpoint).Kill()
			return nil
		}
		err = coretest.CheckOp(c, "allgather", chunk, 0)
		rf, ok := mpi.AsRankFailed(err)
		if !ok {
			return fmt.Errorf("post-kill allgather: want RankFailedError, got %v", err)
		}
		if len(rf.Ranks) != 1 || rf.Ranks[0] != victim {
			return fmt.Errorf("post-kill dead set %v, want [%d]", rf.Ranks, victim)
		}
		nc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("shrink: %w", err)
		}
		if nc.Size() != n-1 {
			return fmt.Errorf("shrunk communicator has %d ranks, want %d", nc.Size(), n-1)
		}
		for r := 0; r < nc.Size(); r++ {
			w := nc.WorldRank(r)
			if w == victim {
				return fmt.Errorf("victim %d still in shrunk communicator", victim)
			}
		}
		if err := coretest.CheckOp(nc, "allgather", chunk, 0); err != nil {
			return fmt.Errorf("rerun on survivors: %w", err)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestUDPChaosStraggler delays one rank by 2.5 suspicion budgets before
// it enters the collective. Its read loop keeps answering pings the
// whole time, so the sweeps the waiting ranks run at each suspicion
// expiry must find it alive: any error anywhere is a false positive or
// a lost result.
func TestUDPChaosStraggler(t *testing.T) {
	requireMulticast(t)
	const n, laggard, chunk = 5, 2, 900
	algs := core.ResilientAlgorithms()
	errs := runUDPChaos(t, n, algs, func(rank int, c *mpi.Comm) error {
		if rank == laggard {
			time.Sleep(150 * time.Millisecond)
		}
		if err := coretest.CheckOp(c, "allreduce", chunk, 0); err != nil {
			return fmt.Errorf("allreduce with straggler: %w", err)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}
