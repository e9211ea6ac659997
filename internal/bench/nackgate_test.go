package bench

import (
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestLosslessRepairSendsNoNack is the repaired sets' zero-NACK gate: on
// a wire that loses nothing, a receiver has nothing to ask for, so every
// operation of mcast-resilient and mcast-2level-resilient, on the switch
// and on the shared-uplink switch at N ∈ {16, 32, 64}, must put no
// repair request on the wire. A receiver whose payload comes last in a
// sliced or segment round waits for every earlier payload of the round;
// budgeting its silence by one payload instead of the round's bytes sent
// 693 NACKs at N=32 and 4,742 at N=64 in the two-level alltoall on the
// shared-uplink switch (1.9 and 13.3 simulated seconds), and one in the
// flat alltoall there at N=64.
func TestLosslessRepairSendsNoNack(t *testing.T) {
	for _, topo := range []simnet.Topology{simnet.Switch, simnet.SwitchShared} {
		prof := simnet.DefaultProfile()
		if topo == simnet.SwitchShared {
			prof = *sharedUplinkProfile()
		}
		prof.Seed = 1
		for _, alg := range []Algorithm{McastResilient, McastTwoLevelResilient} {
			for _, n := range []int{16, 32, 64} {
				for _, op := range workload.Ops() {
					nw, worst, err := coldRun(n, topo, prof, alg, op, 2000)
					if err != nil {
						t.Fatal(err)
					}
					if nacks := nw.Wire.Frames(transport.ClassNack); nacks != 0 {
						t.Errorf("%v %s %s N=%d: %d NACKs on a lossless wire (%d sim-ns)", topo, alg, op, n, nacks, worst)
					}
				}
			}
		}
	}
}
