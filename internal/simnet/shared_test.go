package simnet_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// TestSwitchSharedConformance runs the multicast suite's conformance
// pass on the shared-uplink topology at N beyond the physical port
// count, asserting zero silent drops: flow control absorbs every
// converging burst, and no receive ring overflows.
func TestSwitchSharedConformance(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		n := n
		t.Run(map[int]string{4: "n=4", 8: "n=8", 16: "n=16"}[n], func(t *testing.T) {
			prof := simnet.DefaultProfile()
			prof.UplinkFanout = 4
			nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, core.Algorithms(core.Binary),
				func(c *mpi.Comm) error {
					return coretest.Conformance(c, 1500, 0)
				})
			if err != nil {
				t.Fatal(err)
			}
			if drops := nw.SilentDrops(); drops != 0 {
				t.Fatalf("%d silent drops", drops)
			}
			if ports := nw.SwitchPortStats(); len(ports) != (n+3)/4 {
				t.Fatalf("got %d ports for %d ranks at fanout 4", len(ports), n)
			}
		})
	}
}
