package simnet_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestLossyWorldLeavesNoPartialMessages: a lossy resilient allgather
// repairs multicast fragments to the whole group, so receivers that had
// already completed a message hear stray repairs of it. Once the world is
// quiet no endpoint may hold any reassembly state: every partial message
// completed, and no stray founded a new one.
func TestLossyWorldLeavesNoPartialMessages(t *testing.T) {
	algs, err := bench.Set(bench.McastResilient)
	if err != nil {
		t.Fatal(err)
	}
	prof := simnet.DefaultProfile()
	prof.LossRate, prof.P2PLossRate = 0.01, 0.004
	nw, err := cluster.RunSim(16, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
		for i := 0; i < 3; i++ {
			if err := workload.Make(c, workload.OpAllgather, 20000, 0)(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Stats.InjectedLosses == 0 {
		t.Fatal("no multicast fragment was dropped: the world never repaired")
	}
	for r := 0; r < nw.Size(); r++ {
		if n := nw.Endpoint(r).Pending(); n != 0 {
			t.Errorf("rank %d holds %d partially reassembled messages", r, n)
		}
	}
}
