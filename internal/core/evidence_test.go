package core_test

// Tests for the repair path's evidence rules: once a rank has seen the
// network lose frames, the sender of a control round's release sends it
// again to the ranks whose acks are overdue, without waiting for them to
// ask.

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// lostControl returns a DropFrag that drops the nth first transmission of
// a control frame (a release) arriving at rank dst.
func lostControl(dst, nth int) func(int, transport.Fragment) bool {
	controls := 0
	return func(d int, f transport.Fragment) bool {
		if d != dst || f.Msg.Class != transport.ClassControl || f.Repair {
			return false
		}
		controls++
		return controls == nth
	}
}

// lostFragment returns a DropFrag that drops the first transmission of
// data fragment index of src's multicast arriving at rank dst.
func lostFragment(dst, src, index int) func(int, transport.Fragment) bool {
	return func(d int, f transport.Fragment) bool {
		return d == dst && f.Msg.Src == src && f.Msg.Class == transport.ClassData && !f.Repair && int(f.Index) == index
	}
}

// evidence is what an evidence placement pins: the repair traffic beside
// the lossless run, the releases resent unasked, and when the last rank
// finished.
type evidence struct {
	nacks, data, ctl, resends int64
	finish                    int64
}

// runEvidence runs program on n ranks of topo under mcast-resilient with
// drop placing the losses, and returns what it cost beside clean, the
// same program run lossless.
func runEvidence(t *testing.T, n int, topo simnet.Topology, drop func(int, transport.Fragment) bool, clean *simnet.Network, program func(c *mpi.Comm) error) (evidence, *simnet.Network) {
	t.Helper()
	prof := simnet.DefaultProfile()
	prof.DropFrag = drop
	rec := trace.NewRecorder()
	prof.Trace = rec
	var finish int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(n, topo, prof, core.ResilientAlgorithms(), func(c *mpi.Comm) error {
		if err := program(c); err != nil {
			return err
		}
		finish = max(finish, c.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := evidence{nacks: nw.Wire.Frames(transport.ClassNack), finish: finish}
	if clean != nil {
		got.data = nw.Wire.Frames(transport.ClassData) - clean.Wire.Frames(transport.ClassData)
		got.ctl = nw.Wire.Frames(transport.ClassControl) - clean.Wire.Frames(transport.ClassControl)
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.Instant && e.Name == "resend.release" {
			got.resends++
		}
	}
	return got, nw
}

// TestRepairedBurstReleaseResentOnEvidence is TestRepairedBurstLossPlacement's
// "release" placement after evidence of loss: mcast-resilient's allgather
// and alltoall, N=8, 3,000-byte chunks, on the switch and on the hub.
// Rank 0 first loses the middle fragment of rank 7's slot and asks for it
// (one NACK, one repaired fragment, which rank 0 hears: the evidence);
// then rank 4 loses the confirmation's release. The other six acks prove
// the release lost at rank 4, so rank 0 sends it again once rank 4's ack
// is overdue — one resend.release, one more control frame — and rank 4
// never asks for it: 0 NACKs for the release. Before the sender acted on
// evidence, rank 4 asked for the release a slot's silence plus heardQuiet
// after it scouted (a second NACK), and the last rank finished at
// 31,643,720, 31,325,360, 46,865,560 and 59,700,260 ns, in table order.
func TestRepairedBurstReleaseResentOnEvidence(t *testing.T) {
	const n, chunk = 8, 3000
	for _, tc := range []struct {
		topo   simnet.Topology
		op     string
		finish int64
	}{
		{simnet.Switch, "allgather", 18_572_376},
		{simnet.Switch, "alltoall", 18_200_056},
		{simnet.Hub, "allgather", 19_869_882},
		{simnet.Hub, "alltoall", 32_426_949},
	} {
		t.Run(fmt.Sprintf("%v/%s", tc.topo, tc.op), func(t *testing.T) {
			program := func(c *mpi.Comm) error { return coretest.CheckOp(c, tc.op, chunk, 0) }
			_, clean := runEvidence(t, n, tc.topo, nil, nil, program)
			fragment := lostFragment(0, 7, 1)
			release := lostControl(4, 2) // the handshake's release, then the confirmation's
			drop := func(d int, f transport.Fragment) bool { return fragment(d, f) || release(d, f) }
			got, nw := runEvidence(t, n, tc.topo, drop, clean, program)
			if nw.Stats.InjectedLosses != 2 {
				t.Fatalf("%d losses injected, want the fragment and the release", nw.Stats.InjectedLosses)
			}
			want := evidence{nacks: 1, data: 1, ctl: 1, resends: 1, finish: tc.finish}
			if got != want {
				t.Errorf("got %+v, want %+v", got, want)
			}
		})
	}
}

// TestBarrierReleaseResentOnEvidence is the round engine's placement: a
// resilient barrier after a lossy broadcast, N=8 on the switch. Rank 5
// loses a fragment of rank 3's 4,000-byte broadcast and asks for it; the
// repair reaches every rank, rank 0 included (the evidence). Then rank 4
// loses the barrier's release: rank 0 sends it again once rank 4's ack is
// overdue, and rank 4 never asks for it. Before, rank 4 asked seven
// probe periods into its silence (a second NACK), and the last rank
// finished at 17,282,456 ns.
func TestBarrierReleaseResentOnEvidence(t *testing.T) {
	const n = 8
	program := func(c *mpi.Comm) error {
		if err := coretest.CheckOp(c, "bcast", 4000, 3); err != nil {
			return err
		}
		return c.Barrier()
	}
	_, clean := runEvidence(t, n, simnet.Switch, nil, nil, program)
	fragment := lostFragment(5, 3, 1)
	release := lostControl(4, 1)
	drop := func(d int, f transport.Fragment) bool { return fragment(d, f) || release(d, f) }
	got, nw := runEvidence(t, n, simnet.Switch, drop, clean, program)
	if nw.Stats.InjectedLosses != 2 {
		t.Fatalf("%d losses injected, want the fragment and the release", nw.Stats.InjectedLosses)
	}
	want := evidence{nacks: 1, data: 1, ctl: 1, resends: 1, finish: 4_048_496}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}
