package core_test

// The chaos matrix: every collective crossed with {kill a member, kill
// a segment leader, kill the root, a long compute stall, a transient
// uplink partition} over the flat, chunked, resilient and two-level
// suites. The contract under test is the failure semantics of the mpi
// layer: every live rank either completes with the correct result or
// returns a RankFailedError naming exactly the dead ranks — never a
// hang (the simulation draining with a blocked rank is a DeadlockError
// from the engine) and never a silently wrong answer (every completed
// op is checked against the coretest oracle). Kill scenarios then
// exercise Comm.Shrink: every survivor must derive the same survivor
// communicator and rerun the op on it correctly.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// chaosSuite pairs an algorithm set with the fabric it targets.
type chaosSuite struct {
	name string
	algs mpi.Algorithms
	topo simnet.Topology
	prof *simnet.Profile
	// twoLevel marks the segment-leader suites: they run on the
	// shared-uplink fabric (segments of 4 at N=8, so ranks 0 and 4 lead
	// segments 0 and 1) and get the extra kill-the-leader scenario.
	twoLevel bool
	// repairs marks suites whose data multicasts are NACK-repaired —
	// the only ones that can recover a multicast dropped by a
	// partition (the plain scout suites rule out unready receivers but
	// have no answer to in-flight loss).
	repairs bool
}

func chaosSuites() []chaosSuite {
	shared := sharedProf(4)
	chunked := core.Algorithms(core.Binary)
	chunked.Allreduce = core.AllreduceMcastChunked
	return []chaosSuite{
		{"binary", core.Algorithms(core.Binary), simnet.Switch, nil, false, false},
		{"chunked", chunked, simnet.Switch, nil, false, false},
		// On two even segments the chunked allreduce gathers with no
		// scouts: at this chunk members hand their reduced slices to
		// their leader, so a leader's death lands in that hand-off or
		// in its segment's one multicast.
		{"chunked-shared", chunked, simnet.SwitchShared, &shared, true, false},
		{"resilient", core.ResilientAlgorithms(), simnet.Switch, nil, false, true},
		{"2level", core.TwoLevelAlgorithms(), simnet.SwitchShared, &shared, true, false},
		{"2level-resilient", core.TwoLevelResilientAlgorithms(), simnet.SwitchShared, &shared, true, true},
	}
}

const chaosChunk = 1500 // one full ethernet frame plus fragmentation

// TestChaosControl runs every op fault-free with the failure detector
// armed: any error at all is a false positive.
func TestChaosControl(t *testing.T) {
	for _, s := range chaosSuites() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, op := range coretest.Ops {
				coretest.RunChaos(t, coretest.Scenario{
					Name:  s.name + "/" + op,
					N:     8,
					Chunk: chaosChunk,
					Op:    op,
					Topo:  s.topo,
					Prof:  s.prof,
				}, s.algs)
			}
		})
	}
}

// TestChaosKill crosses every op with the kill placements that stress
// distinct protocol roles: an ordinary member, the root of the rooted
// ops, and — on the two-level fabric — a segment leader (rank 4 leads
// segment 1). The kill lands mid-collective; every survivor must
// report dead set {victim} or finish correctly, then Shrink to the
// same 7-rank communicator and rerun the op on it.
func TestChaosKill(t *testing.T) {
	for _, s := range chaosSuites() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			victims := []struct {
				role string
				rank int
			}{
				{"member", 3},
				{"root", 0},
			}
			if s.twoLevel {
				// Rank 5 is a plain member of the remote segment; rank 4
				// is its leader, whose death orphans ranks 5-7 and the
				// inter-segment exchange at once.
				victims[0].rank = 5
				victims = append(victims, struct {
					role string
					rank int
				}{"leader", 4})
			}
			for _, v := range victims {
				for _, op := range coretest.Ops {
					coretest.RunChaos(t, coretest.Scenario{
						Name:   s.name + "/kill-" + v.role + "/" + op,
						N:      8,
						Chunk:  chaosChunk,
						Op:     op,
						Topo:   s.topo,
						Prof:   s.prof,
						Kills:  []coretest.Kill{{Rank: v.rank, At: 150 * sim.Microsecond}},
						Shrink: true,
					}, s.algs)
				}
			}
		})
	}
}

// TestChaosStraggler stalls rank 2's CPU for 50 ms mid-collective —
// two and a half suspicion budgets — while its NIC stays alive. The
// stream layer answers probes at interrupt level, so a slow-but-alive
// rank must never be declared dead: any error is a false positive, and
// every rank must still compute the correct result once the straggler
// catches up.
func TestChaosStraggler(t *testing.T) {
	for _, s := range chaosSuites() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, op := range coretest.Ops {
				coretest.RunChaos(t, coretest.Scenario{
					Name:  s.name + "/straggle/" + op,
					N:     8,
					Chunk: chaosChunk,
					Op:    op,
					Topo:  s.topo,
					Prof:  s.prof,
					Stalls: []coretest.Stall{
						{Rank: 2, At: 100 * sim.Microsecond, Delay: 50 * sim.Millisecond},
					},
				}, s.algs)
			}
		})
	}
}

// TestChaosPartition cuts segment 1's uplink for 8 ms starting just as
// the collective's data starts moving. Multicasts and first
// transmissions into or out of the segment are dropped cold; the
// repair-capable suites must recover everything once the cut heals —
// data via NACK re-multicast, control via stream retransmission — with
// zero false positives. The window is deliberately shorter than the
// ping budget (3 probes x 5 ms): the third probe of any sweep lands
// after the heal, so a partitioned-but-alive rank cannot be declared
// dead. Only the NACK-repaired suites run: the plain scout suites have
// no repair path for a multicast lost in flight, so a partition is an
// unrecoverable loss for them by design.
func TestChaosPartition(t *testing.T) {
	shared := sharedProf(4)
	for _, s := range chaosSuites() {
		if !s.repairs {
			continue
		}
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, op := range coretest.Ops {
				coretest.RunChaos(t, coretest.Scenario{
					Name:  s.name + "/cut-seg1/" + op,
					N:     8,
					Chunk: chaosChunk,
					Op:    op,
					Topo:  simnet.SwitchShared, // segments exist only on the shared fabric
					Prof:  &shared,
					Cuts: []coretest.Cut{
						{Seg: 1, From: 100 * sim.Microsecond, To: 8 * sim.Millisecond},
					},
				}, s.algs)
			}
		})
	}
}
