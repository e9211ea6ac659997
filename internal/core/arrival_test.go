package core_test

// Tests for the receiver's arrival clock (awaitMulticast): a repair
// request follows what the device saw arrive — promptly when a message
// stopped arriving, never while one still is, and exactly as late as
// before when nothing arrived at all.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// probe is the resilient sets' repair probe period: how often a waiting
// receiver looks at what its device has seen arrive.
const probe = 2 * sim.Millisecond

// bcastUnder broadcasts size bytes from rank 0 on n ranks under the flat
// resilient set and prof, and returns the longest rank's call and the
// network.
func bcastUnder(t *testing.T, n int, topo simnet.Topology, prof simnet.Profile, size int) (sim.Duration, *simnet.Network) {
	t.Helper()
	var worst int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(n, topo, prof, core.ResilientAlgorithms(), func(c *mpi.Comm) error {
		buf := make([]byte, size)
		start := c.Now()
		if err := c.Bcast(buf, 0); err != nil {
			return err
		}
		worst = max(worst, c.Now()-start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Duration(worst), nw
}

// dropFirst returns a DropFrag that drops, once, the first transmission
// of data fragment index arriving at rank dst.
func dropFirst(dst, index int) func(int, transport.Fragment) bool {
	dropped := false
	return func(d int, f transport.Fragment) bool {
		if dropped || d != dst || f.Msg.Class != transport.ClassData || int(f.Index) != index || f.Repair {
			return false
		}
		dropped = true
		return true
	}
}

// TestOneLostFragmentCostsUnderTwiceTheOp: one fragment of a 14-fragment
// broadcast to 32 ranks, lost at one receiver — the head, the middle or
// the tail one — is asked for as soon as the rest has stopped arriving
// and repaired within one more operation's time (5,735 sim-µs against
// 4,882 lossless). On a doubling 2 ms poll the request left at the third
// expiry and the broadcast took three times as long (15,018).
func TestOneLostFragmentCostsUnderTwiceTheOp(t *testing.T) {
	const n, frags = 32, 14
	size := frags * simnet.MaxFragPayload
	clean, nw := bcastUnder(t, n, simnet.Switch, simnet.DefaultProfile(), size)
	if nacks := nw.Wire.Frames(transport.ClassNack); nacks != 0 {
		t.Fatalf("the lossless broadcast put %d repair requests on the wire", nacks)
	}
	for _, index := range []int{0, 6, frags - 1} {
		prof := simnet.DefaultProfile()
		prof.DropFrag = dropFirst(3, index)
		lossy, nw := bcastUnder(t, n, simnet.Switch, prof, size)
		if nw.Stats.InjectedLosses != 1 {
			t.Fatalf("fragment %d: injected %d losses, want exactly 1", index, nw.Stats.InjectedLosses)
		}
		if got := nw.Wire.Frames(transport.ClassData); got != frags+1 {
			t.Errorf("fragment %d: %d data frames on the wire, want the %d of the broadcast and one repair", index, got, frags)
		}
		if lossy >= 2*clean {
			t.Errorf("fragment %d lost: the broadcast took %v, lossless %v: a repair must cost less than the operation again", index, lossy, clean)
		}
	}
}

// TestLosslessResilientSetsAreSilent: without loss the resilient sets put
// no repair request and no confirming probe on the wire, and every rank
// finishes at the nanosecond it did before the receiver read an arrival
// clock and the stream confirmed sends: without evidence both are exactly
// as silent as they were. The constants were recorded with the parent
// commit's library code (0af0e2c), and the flat sets' rows again when
// the repaired allgather and alltoall became one burst between two
// barriers: 125,103,040 ns on the switch and 126,104,020 ns on the
// shared-uplink switch before. The two-level set's shared-uplink row was
// re-recorded when its repaired allgather and alltoall became the flat
// repaired burst, in place of a segment-local combine and S sequential
// leader rounds: 121,227,740 ns before. It was re-recorded again when
// the two-level bcast and barrier became the flat set's and its scatter
// and gather at 3,000 B (outside twoLevelWins) the flat set's too:
// 54,174,760 ns before. Every row was re-recorded when the flat sets'
// scatter and gather at 16 ranks became package baseline's point-to-point
// ones (slicedScatterWins, p2pGatherFits), which put no multicast, and
// so no ack, on the wire: 29,511,000 ns on the switch (both sets),
// 53,489,080 and 53,421,700 ns on the shared-uplink switch before.
func TestLosslessResilientSetsAreSilent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		algs   mpi.Algorithms
		topo   simnet.Topology
		finish int64
	}{
		{"mcast-resilient/switch", core.ResilientAlgorithms(), simnet.Switch, 24_041_200},
		{"mcast-resilient/switch-shared", core.ResilientAlgorithms(), simnet.SwitchShared, 51_919_980},
		{"mcast-2level-resilient/switch", core.TwoLevelResilientAlgorithms(), simnet.Switch, 24_041_200},
		{"mcast-2level-resilient/switch-shared", core.TwoLevelResilientAlgorithms(), simnet.SwitchShared, 51_852_600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var finish int64 // ranks run one at a time under the engine
			nw, err := cluster.RunSim(16, tc.topo, simnet.DefaultProfile(), tc.algs, func(c *mpi.Comm) error {
				for _, op := range workload.Ops() {
					if err := workload.Make(c, op, 3000, 0)(); err != nil {
						return err
					}
				}
				finish = max(finish, c.Now())
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if nacks := nw.Wire.Frames(transport.ClassNack); nacks != 0 {
				t.Errorf("%d repair requests on a lossless wire", nacks)
			}
			if st := nw.Stats.Stream.Snapshot(); st.ConfirmsSent != 0 || st.Retransmits != 0 {
				t.Errorf("a lossless run confirmed sends or retransmitted: %+v", st)
			}
			if finish != tc.finish {
				t.Errorf("the last rank finished the seven collectives at %d ns, the parent commit at %d ns", finish, tc.finish)
			}
		})
	}
}

// TestLongTransmissionProvokesNoRequest: a transmission that is merely
// long — 64 fragments on the shared hub, where it lasts four times the
// 2 ms a receiver looks every — keeps arriving, and a message that keeps
// arriving is never asked about.
func TestLongTransmissionProvokesNoRequest(t *testing.T) {
	took, nw := bcastUnder(t, 8, simnet.Hub, simnet.DefaultProfile(), 64*simnet.MaxFragPayload)
	if took < 3*probe {
		t.Fatalf("the broadcast took %v, not several of the receiver's %v looks: the test no longer tests a long transmission", took, probe)
	}
	if nacks := nw.Wire.Frames(transport.ClassNack); nacks != 0 {
		t.Errorf("%d repair requests raced a transmission still in flight", nacks)
	}
	if got := nw.Wire.Frames(transport.ClassData); got != 64 {
		t.Errorf("%d data frames on the wire, want 64", got)
	}
}

// TestLostSingleFragmentMulticastWaitsAsBefore: when nothing of a message
// arrives there is no arrival to clock, and an empty request costs the
// sender a full resend. The receiver still sends it — seven probe periods
// into the silence, no earlier than before — and the broadcast completes.
func TestLostSingleFragmentMulticastWaitsAsBefore(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.DropFrag = dropFirst(3, 0)
	took, nw := bcastUnder(t, 8, simnet.Switch, prof, 1000)
	if nw.Stats.InjectedLosses != 1 || nw.Wire.Frames(transport.ClassNack) != 1 || nw.Wire.Frames(transport.ClassData) != 2 {
		t.Fatalf("%d losses, %d repair requests, %d data frames; want one lost multicast, asked for once, sent twice",
			nw.Stats.InjectedLosses, nw.Wire.Frames(transport.ClassNack), nw.Wire.Frames(transport.ClassData))
	}
	silence := 7 * probe
	if took < silence || took > silence+sim.Millisecond {
		t.Errorf("the broadcast took %v: the empty request must leave %v into the silence, no earlier and not a look later", took, silence)
	}
}
