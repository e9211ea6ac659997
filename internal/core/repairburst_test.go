package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestRepairedBurstLossPlacement places each loss the repaired burst must
// survive — mcast-resilient's allgather and alltoall, N=8, 3,000-byte
// chunks (three fragments each), on the switch and on the hub — and pins
// the repair traffic it costs: NACKs, the data and control frames beside
// the lossless run's, and the stream retransmissions.
//
//   - crossed: ranks 2 and 5 each lose the middle fragment of the
//     other's slot, so each must serve the other's request while it
//     waits for its own repair; a loop that consumed before it served
//     would deadlock;
//   - empty: rank 3 loses every fragment of rank 6's slot and asks for
//     all of it;
//   - release: rank 4 loses the confirmation's release and asks rank 0
//     for it;
//   - nack: rank 1 loses a fragment of rank 7's slot, and its first
//     request is lost on the way: it asks again a repairProbe later and
//     is served, and the stream's resend of the lost request is a third
//     NACK frame, which comes too late to cost a repair.
//
// Every rank must end with the right result (coretest.CheckOp).
func TestRepairedBurstLossPlacement(t *testing.T) {
	const n, chunk = 8, 3000
	firstData := func(dst, src int, index int) func(int, transport.Fragment) bool {
		return func(d int, f transport.Fragment) bool {
			return d == dst && f.Msg.Src == src && f.Msg.Class == transport.ClassData && !f.Repair &&
				(index < 0 || int(f.Index) == index)
		}
	}
	type repair struct{ nacks, data, ctl, retransmits int64 }
	type placement struct {
		name string
		frag func() func(int, transport.Fragment) bool
		p2p  func() func(int, transport.Fragment) bool
		// want is the same on both fabrics and for both operations.
		want repair
	}
	placements := []placement{
		{"crossed", func() func(int, transport.Fragment) bool {
			a, b := firstData(2, 5, 1), firstData(5, 2, 1)
			return func(d int, f transport.Fragment) bool { return a(d, f) || b(d, f) }
		}, nil, repair{nacks: 2, data: 2}},
		{"empty", func() func(int, transport.Fragment) bool { return firstData(3, 6, -1) }, nil, repair{nacks: 1, data: 3}},
		{"release", func() func(int, transport.Fragment) bool {
			controls := 0 // the handshake's release, then the confirmation's
			return func(d int, f transport.Fragment) bool {
				if d != 4 || f.Msg.Class != transport.ClassControl || f.Repair {
					return false
				}
				controls++
				return controls == 2
			}
		}, nil, repair{nacks: 1, ctl: 1}},
		{"nack", func() func(int, transport.Fragment) bool { return firstData(1, 7, 2) },
			func() func(int, transport.Fragment) bool {
				lost := false
				return func(_ int, f transport.Fragment) bool {
					if lost || f.Msg.Class != transport.ClassNack || f.Repair {
						return false
					}
					lost = true
					return true
				}
			}, repair{nacks: 3, data: 1, retransmits: 1}},
	}
	for _, topo := range []simnet.Topology{simnet.Switch, simnet.Hub} {
		for _, op := range []string{"allgather", "alltoall"} {
			run := func(prof simnet.Profile) (*simnet.Network, error) {
				return cluster.RunSim(n, topo, prof, core.ResilientAlgorithms(), func(c *mpi.Comm) error {
					return coretest.CheckOp(c, op, chunk, 0)
				})
			}
			clean, err := run(simnet.DefaultProfile())
			if err != nil {
				t.Fatalf("%v %s lossless: %v", topo, op, err)
			}
			for _, pl := range placements {
				name := fmt.Sprintf("%v/%s/%s", topo, op, pl.name)
				t.Run(name, func(t *testing.T) {
					prof := simnet.DefaultProfile()
					prof.DropFrag = pl.frag()
					if pl.p2p != nil {
						prof.DropP2P = pl.p2p()
					}
					nw, err := run(prof)
					if err != nil {
						t.Fatal(err)
					}
					if nw.Stats.InjectedLosses == 0 {
						t.Fatal("the placed loss never fired")
					}
					got := repair{
						nacks:       nw.Wire.Frames(transport.ClassNack),
						data:        nw.Wire.Frames(transport.ClassData) - clean.Wire.Frames(transport.ClassData),
						ctl:         nw.Wire.Frames(transport.ClassControl) - clean.Wire.Frames(transport.ClassControl),
						retransmits: nw.Stats.Stream.Retransmits.Load(),
					}
					if got != pl.want {
						t.Errorf("repair traffic %+v, want %+v (%d losses injected)", got, pl.want, nw.Stats.InjectedLosses)
					}
				})
			}
		}
	}
}
