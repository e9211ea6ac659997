package core_test

// Conformance and edge cases for the two-level (segment-leader)
// collective suite: correctness on the shared-uplink fabric the
// decomposition targets (even and uneven segment sizes, both roots),
// strict posted-receive gating with a lagging rank, loss injection —
// including loss aimed specifically at a segment leader — the
// single-segment degenerate topology (must reduce to the flat
// algorithm, frame for frame), and the scout economy the subsystem
// exists for (≤ N + S² + S scout frames per allgather, versus the flat
// N(N-1)).

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
)

// sharedProf is the shared-uplink profile the two-level suite targets.
func sharedProf(fanout int) simnet.Profile {
	prof := simnet.DefaultProfile()
	prof.UplinkFanout = fanout
	return prof
}

// twoLevelGrid spans even segments (8 = 2×4, 16 = 4×4), uneven ones
// (6 = 4+2, 7 = 4+3) and the tiny world, with sub-frame, one-frame and
// multi-frame chunks, rooted at 0 and N-1 (coretest.Grid adds the
// second root), so leader override, member order and aggregate-block
// slicing are all exercised. The scatter and gather run two-level only
// with a segment's chunks in one frame, the scatter from N=32 and the
// gather from N=16 (core's plan), so the grid adds a singleton segment
// (17 = 4×4+1, 65 = 16×4+1) and uneven ones (18 = 4×4+2, 66 = 16×4+2)
// at chunks inside the gather's regime, and at 65 and 66 the
// scatter's.
var twoLevelGrid = append(coretest.Grid([]int{2, 6, 7, 8, 16}, []int{0, 1, 1500, 4000}),
	append(coretest.Grid([]int{17, 18}, []int{1, 300}),
		coretest.Grid([]int{65, 66}, []int{1, 300})...)...)

func TestTwoLevelConformanceSharedUplink(t *testing.T) {
	for _, set := range []struct {
		name string
		algs mpi.Algorithms
	}{
		{"mcast-2level", core.TwoLevelAlgorithms()},
		{"mcast-2level-resilient", core.TwoLevelResilientAlgorithms()},
		{"mcast-chunked", chunkedAlgorithms()},
	} {
		set := set
		t.Run(set.name, func(t *testing.T) {
			st := coretest.Check(t, coretest.SimRunner(simnet.SwitchShared, sharedProf(4), 0), set.algs, twoLevelGrid)
			if st.McastDropsNotPosted != 0 || st.InjectedLosses != 0 || st.SilentDrops != 0 {
				t.Fatalf("lossless shared-uplink run reported losses: %+v", st)
			}
		})
	}
}

// TestTwoLevelConformanceMem: without a device topology (the in-process
// channel transport) the two-level set must silently be the flat suite
// — same conformance surface, real goroutine concurrency for -race.
func TestTwoLevelConformanceMem(t *testing.T) {
	cases := coretest.Grid([]int{1, 2, 5, 8}, []int{0, 1, 1000})
	coretest.Check(t, coretest.MemRunner(), core.TwoLevelAlgorithms(), cases)
}

// TestTwoLevelStrictLaggingRank: the hierarchical gating must be as
// loss-proof as the flat scouts — a rank entering 2 ms late (a member
// in some runs, a segment leader in others, as N/2 moves around) costs
// not a single multicast fragment under VIA-style strict semantics.
func TestTwoLevelStrictLaggingRank(t *testing.T) {
	prof := sharedProf(4)
	prof.StrictPosted = true
	sets := []struct {
		name string
		algs mpi.Algorithms
	}{
		{"mcast-2level", core.TwoLevelAlgorithms()},
		{"mcast-2level-resilient", core.TwoLevelResilientAlgorithms()},
		{"mcast-chunked", chunkedAlgorithms()},
	}
	for _, set := range sets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			st := coretest.Check(t, coretest.SimRunner(simnet.SwitchShared, prof, 2*sim.Millisecond), set.algs, twoLevelGrid)
			if st.McastDropsNotPosted != 0 {
				t.Fatalf("two-level gating lost %d multicast fragments", st.McastDropsNotPosted)
			}
		})
	}
}

// TestChunkedStrictPostedScoutFree: on even segments the chunked
// allreduce's allgather sends no scouts — its multicasts go out as soon
// as the sender leaves the reduce-scatter, which is evidence that every
// rank has entered, and are safe only because every rank posts its
// descriptors on entry. Under strict posted-receive semantics a rank
// that posted later would lose them, so at N=32 and N=64, with
// sub-frame segment blocks (leaders multicast, or at N=64 the lanes'
// members in segment 0) and multi-frame slices (every rank multicasts),
// and at N=128 and N=256, where the lane step halves over S=32 and 64
// segments, many slices are empty at 100 B and the lane gather runs,
// the result must be right with no multicast fragment dropped and no
// rank left blocked.
func TestChunkedStrictPostedScoutFree(t *testing.T) {
	prof := sharedProf(4)
	prof.StrictPosted = true
	for _, tc := range []struct{ n, sizes []int }{
		{[]int{32, 64}, []int{100, 2000, 65536}},
		{[]int{128, 256}, []int{100, 2000}},
	} {
		for _, n := range tc.n {
			for _, size := range tc.sizes {
				nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, chunkedAlgorithms(), func(c *mpi.Comm) error {
					return coretest.CheckOp(c, "allreduce", size, 0)
				})
				var dl *sim.DeadlockError
				if errors.As(err, &dl) {
					t.Fatalf("N=%d %d B: ranks left blocked: %v", n, size, err)
				}
				if err != nil {
					t.Fatalf("N=%d %d B: %v", n, size, err)
				}
				if drops := nw.Stats.McastDropsNotPosted; drops != 0 {
					t.Errorf("N=%d %d B: %d multicast fragments reached an unposted receiver", n, size, drops)
				}
			}
		}
	}
}

// TestPlannedChunkedStrictLaggard holds the same for the lossless sets
// that run the chunked allreduce themselves (core's plan: even segments
// past one frame): Comm.Allreduce through mcast-binary and mcast-2level
// at N=64 and N=256, 2,000 B, on the shared-uplink switch (fanout 4),
// under strict posted receives, with rank 0, N/2 or N-1 entering 50 µs
// or 2 ms late. Every rank must return the right result with no
// multicast fragment dropped at an unposted receiver and no queue drop:
// the set's scout-free allgather may rest only on the reduce-scatter's
// evidence, whichever rank lags.
func TestPlannedChunkedStrictLaggard(t *testing.T) {
	prof := sharedProf(4)
	prof.StrictPosted = true
	for _, set := range []struct {
		name string
		algs mpi.Algorithms
	}{
		{"mcast-binary", core.Algorithms(core.Binary)},
		{"mcast-2level", core.TwoLevelAlgorithms()},
	} {
		for _, n := range []int{64, 256} {
			for _, laggard := range []int{0, n / 2, n - 1} {
				for _, lag := range []sim.Duration{50 * sim.Microsecond, 2 * sim.Millisecond} {
					st, err := coretest.LaggardRunner(simnet.SwitchShared, prof, laggard, lag)(n, set.algs, func(c *mpi.Comm) error {
						return coretest.CheckOp(c, "allreduce", 2000, 0)
					})
					at := fmt.Sprintf("%s N=%d laggard %d by %d µs", set.name, n, laggard, lag/sim.Microsecond)
					if err != nil {
						t.Errorf("%s: %v", at, err)
					}
					if st.McastDropsNotPosted != 0 || st.SilentDrops != 0 {
						t.Errorf("%s: %d multicast fragments reached an unposted receiver, %d silent drops", at, st.McastDropsNotPosted, st.SilentDrops)
					}
				}
			}
		}
	}
}

// TestChunkedAllreduceZeroBytesSendsNothing: an allreduce of no bytes has
// nothing to reduce and nothing to gather, so the chunked allreduce puts
// no frame on the wire — on the shared-uplink fabric, where its
// allgather would otherwise be a scout handshake and N empty multicasts,
// as on the flat one (the a3 table's 0+0+0 row).
func TestChunkedAllreduceZeroBytesSendsNothing(t *testing.T) {
	nw, err := cluster.RunSim(8, simnet.SwitchShared, sharedProf(4), chunkedAlgorithms(),
		func(c *mpi.Comm) error {
			if tm := c.Topo(); tm == nil || tm.Segments() != 2 {
				return fmt.Errorf("expected 2 segments, got %v", tm)
			}
			return c.Allreduce(nil, nil, mpi.Float64, mpi.OpSum)
		})
	if err != nil {
		t.Fatal(err)
	}
	if frames := nw.Wire.TotalFrames(); frames != 0 {
		t.Fatalf("a 0-byte chunked allreduce put %d frames on the wire, want 0", frames)
	}
}

// TestTwoLevelInjectedLoss: random multicast fragment loss (fan-outs,
// segment rounds and releases are all multicast) plus p2p loss (member
// chunks, aggregate blocks, scouts, acks and the repair protocol
// itself), recovered by the resilient two-level set.
func TestTwoLevelInjectedLoss(t *testing.T) {
	algs := core.TwoLevelResilientAlgorithms()
	t.Run("mcast", func(t *testing.T) {
		prof := sharedProf(4)
		prof.LossRate = 0.05
		prof.Seed = 17
		st := coretest.Check(t, coretest.SimRunner(simnet.SwitchShared, prof, 0), algs, twoLevelGrid)
		if st.InjectedLosses == 0 {
			t.Fatal("loss injection never fired; the resilience claim is vacuous")
		}
		t.Logf("recovered from %d injected multicast losses (%d nacks)", st.InjectedLosses, st.NackFrames)
	})
	t.Run("mcast+p2p", func(t *testing.T) {
		prof := sharedProf(4)
		prof.LossRate = 0.03
		prof.P2PLossRate = 0.03
		prof.Seed = 19
		st := coretest.Check(t, coretest.SimRunner(simnet.SwitchShared, prof, 0), algs, twoLevelGrid)
		if st.InjectedLosses == 0 || st.InjectedP2PLosses == 0 {
			t.Fatalf("loss injection never fired (mcast=%d p2p=%d)", st.InjectedLosses, st.InjectedP2PLosses)
		}
		t.Logf("recovered from %d mcast + %d p2p losses (%d stream retransmits, %d nacks)",
			st.InjectedLosses, st.InjectedP2PLosses, st.StreamRetransmits, st.NackFrames)
	})
}

// TestTwoLevelLeaderLoss aims deterministic loss at a segment leader —
// the rank every two-level protocol funnels through: every multicast
// fragment arriving at the leader of the last segment is dropped on
// first delivery (repairs get through), and the resilient set must
// still conform. At N=8 the scatter and gather run the flat set's
// schedule (core's plan), at N=16 the scatter does and the gather runs
// two levels below 356 B, and N=64 runs both two-level. The two-level
// gather multicasts nothing, so its loss here is the other operations'.
func TestTwoLevelLeaderLoss(t *testing.T) {
	const fanout = 4
	for _, cs := range []struct {
		name     string
		n, chunk int
	}{
		{"chunk=1", 8, 1},
		{"chunk=1500", 8, 1500},
		{"n=16/chunk=1", 16, 1},
		{"n=16/chunk=300", 16, 300},
		{"n=64/chunk=1", 64, 1},
		{"n=64/chunk=300", 64, 300},
	} {
		t.Run(cs.name, func(t *testing.T) {
			tm := topo.Uniform(cs.n, fanout)
			leader := tm.Leader(tm.Segments() - 1) // rank 4 at N=8, 12 at N=16, 60 at N=64
			prof := sharedProf(fanout)
			seen := make(map[uint64]bool)
			prof.DropFrag = func(dst int, f transport.Fragment) bool {
				if dst != leader {
					return false
				}
				key := f.MsgID<<16 | uint64(f.Index)
				if seen[key] {
					return false // the repair retransmission gets through
				}
				seen[key] = true
				return true
			}
			algs := core.TwoLevelResilientAlgorithms()
			nw, err := cluster.RunSim(cs.n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
				return coretest.Conformance(c, cs.chunk, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if nw.Stats.InjectedLosses == 0 {
				t.Fatal("leader-targeted loss never fired")
			}
			t.Logf("leader %d lost %d first-delivery fragments, all repaired", leader, nw.Stats.InjectedLosses)
		})
	}
}

// TestTwoLevelSingleSegmentDelegates: on a degenerate topology — every
// rank on ONE shared segment, so there is no uplink to economize — the
// two-level collectives must BE the flat algorithms, frame for frame:
// identical wire counters, class by class, against the explicit flat
// suite under the same seed.
func TestTwoLevelSingleSegmentDelegates(t *testing.T) {
	const n, chunk = 5, 1500
	run := func(algs mpi.Algorithms) *simnet.Network {
		prof := sharedProf(n) // fanout >= n: a single segment
		nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
			if tm := c.Topo(); tm == nil || tm.Segments() != 1 {
				return fmt.Errorf("expected a single-segment topology, got %v", tm)
			}
			return coretest.Conformance(c, chunk, 0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	twoLevel := run(core.TwoLevelAlgorithms())
	flat := run(core.Algorithms(core.Binary))
	for _, class := range []transport.Class{transport.ClassScout, transport.ClassData, transport.ClassControl, transport.ClassNack} {
		if got, want := twoLevel.Wire.Frames(class), flat.Wire.Frames(class); got != want {
			t.Errorf("single-segment two-level sent %d %v frames, flat sent %d", got, class, want)
		}
	}
}

// TestTwoLevelRepairedBurstIsFlat: under NACK repair the two-level
// allgather and alltoall are the flat repaired burst on a segmented
// fabric too — the same wire frames, class by class, and the same
// simulated nanoseconds as mcast-resilient's at 1 % multicast loss. Both
// operations run back to back in one world per set, with no barrier
// between them, since the sets' own barriers differ.
func TestTwoLevelRepairedBurstIsFlat(t *testing.T) {
	const n, fanout, chunk = 16, 4, 1000
	ops := []workload.Op{workload.OpAllgather, workload.OpAlltoall}
	run := func(algs mpi.Algorithms) (*simnet.Network, []int64) {
		prof := sharedProf(fanout)
		prof.LossRate = 0.01
		prof.Seed = 5
		done := make([]int64, len(ops)) // ranks run one at a time under the engine
		nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
			for i, op := range ops {
				if err := workload.Make(c, op, chunk, 0)(); err != nil {
					return err
				}
				done[i] = max(done[i], c.Now())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if nw.Stats.InjectedLosses == 0 {
			t.Fatal("loss injection never fired; the repair path was not walked")
		}
		return nw, done
	}
	twoLevel, twoDone := run(core.TwoLevelResilientAlgorithms())
	flat, flatDone := run(core.ResilientAlgorithms())
	for _, class := range []transport.Class{transport.ClassScout, transport.ClassData, transport.ClassControl, transport.ClassNack, transport.ClassAck} {
		if got, want := twoLevel.Wire.Frames(class), flat.Wire.Frames(class); got != want {
			t.Errorf("two-level resilient sent %d %v frames, flat resilient %d", got, class, want)
		}
	}
	for i, op := range ops {
		if twoDone[i] != flatDone[i] {
			t.Errorf("%s finished at %d ns two-level resilient, %d ns flat resilient", op, twoDone[i], flatDone[i])
		}
	}
}

// TestTwoLevelScoutEconomy counts the scouts of the allgather on the
// shared-uplink fabric. Lossless, the two-level set runs the flat set's
// burst: N-1 scouts, exactly the flat allgather's. Under repair it runs
// the flat repaired burst, which bursts between two barriers: 2(N-1)
// scouts (N(N-1) while it ran a round per rank), still under the
// N + S² + S bound. While the two-level set repaired by a segment-local
// combine and S sequential leader rounds it sent (N-S) + S(S-1).
func TestTwoLevelScoutEconomy(t *testing.T) {
	for _, cs := range []struct{ n, fanout int }{{8, 4}, {16, 4}, {12, 3}, {7, 3}} {
		cs := cs
		t.Run(fmt.Sprintf("n=%d fanout=%d", cs.n, cs.fanout), func(t *testing.T) {
			prof := sharedProf(cs.fanout)
			s := topo.Uniform(cs.n, cs.fanout).Segments()
			measure := func(algs mpi.Algorithms) int64 {
				nw, err := cluster.RunSim(cs.n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
					return workload.Make(c, workload.OpAllgather, 1500, 0)()
				})
				if err != nil {
					t.Fatal(err)
				}
				return nw.Wire.Frames(transport.ClassScout)
			}
			if two, flat := measure(core.TwoLevelAlgorithms()), measure(core.Algorithms(core.Binary)); two != int64(cs.n-1) || flat != two {
				t.Errorf("lossless allgather sent %d scouts two-level, %d flat; want N-1 = %d both", two, flat, cs.n-1)
			}
			two := measure(core.TwoLevelResilientAlgorithms())
			flat := measure(core.ResilientAlgorithms())
			if two != flat {
				t.Errorf("resilient two-level allgather sent %d scouts, the flat resilient one %d; want equal", two, flat)
			}
			if bound := int64(cs.n + s*s + s); two > bound {
				t.Errorf("resilient two-level allgather sent %d scouts, above the N+S²+S bound %d", two, bound)
			}
			if flat != int64(2*(cs.n-1)) {
				t.Errorf("resilient flat allgather sent %d scouts, want 2(N-1)=%d", flat, 2*(cs.n-1))
			}
		})
	}
}

// TestTwoLevelUnevenSegments pins the uneven-placement bookkeeping
// directly: 7 ranks at fanout 3 give segments of 3, 3 and 1 — a
// singleton segment whose leader has no local phase at all — and the
// full conformance pass must hold for roots in every kind of segment.
// At N=7 the scatter and gather run the flat set's schedule
// (core's plan), so 64 ranks at fanout 3 — 21 segments of 3 and a
// singleton — with 300-byte chunks take the same roots through the
// two-level scatter and gather, and 19 ranks (six segments of 3 and a
// singleton) through the two-level gather.
func TestTwoLevelUnevenSegments(t *testing.T) {
	prof := sharedProf(3)
	for _, cs := range []struct {
		name           string
		n, root, chunk int
	}{
		{"root=0", 7, 0, 1000}, // leader
		{"root=4", 7, 4, 1000}, // member
		{"root=6", 7, 6, 1000}, // singleton leader
		{"n=19/root=0", 19, 0, 300},
		{"n=19/root=4", 19, 4, 300},
		{"n=19/root=18", 19, 18, 300},
		{"n=64/root=0", 64, 0, 300},
		{"n=64/root=4", 64, 4, 300},
		{"n=64/root=63", 64, 63, 300},
	} {
		t.Run(cs.name, func(t *testing.T) {
			nw, err := cluster.RunSim(cs.n, simnet.SwitchShared, prof, core.TwoLevelAlgorithms(), func(c *mpi.Comm) error {
				last := cs.n / 3
				if tm := c.Topo(); tm == nil || tm.Segments() != last+1 || len(tm.Members(last)) != 1 {
					return fmt.Errorf("expected %d segments of 3 and a singleton, got %v", last, tm)
				}
				return coretest.Conformance(c, cs.chunk, cs.root)
			})
			if err != nil {
				t.Fatal(err)
			}
			if drops := nw.SilentDrops(); drops != 0 {
				t.Fatalf("%d silent drops", drops)
			}
		})
	}
}

// TestTwoLevelAlltoallScoutEconomy pins the alltoall decomposition's
// handshake budget: one burst, whose barrier sends N-1 scouts — as the
// flat lossless alltoall's burst does — and the flat alltoall's repaired
// burst 2(N-1), its handshake's and its confirmation's, where its N
// rounds of N-1 sent 65,280 at N=256.
func TestTwoLevelAlltoallScoutEconomy(t *testing.T) {
	measure := func(n, fanout, chunk int, algs mpi.Algorithms) int64 {
		nw, err := cluster.RunSim(n, simnet.SwitchShared, sharedProf(fanout), algs, func(c *mpi.Comm) error {
			return workload.Make(c, workload.OpAlltoall, chunk, 0)()
		})
		if err != nil {
			t.Fatal(err)
		}
		return nw.Wire.Frames(transport.ClassScout)
	}
	for _, cs := range []struct{ n, fanout int }{{8, 4}, {16, 4}, {12, 3}, {7, 3}} {
		cs := cs
		t.Run(fmt.Sprintf("n=%d fanout=%d", cs.n, cs.fanout), func(t *testing.T) {
			two := measure(cs.n, cs.fanout, 100, core.TwoLevelAlgorithms())
			flat := measure(cs.n, cs.fanout, 100, core.Algorithms(core.Binary))
			repaired := measure(cs.n, cs.fanout, 100, core.ResilientAlgorithms())
			if want := int64(cs.n - 1); two != want {
				t.Errorf("two-level alltoall sent %d scouts, want exactly N-1 = %d", two, want)
			}
			if want := int64(cs.n - 1); flat != want {
				t.Errorf("flat alltoall sent %d scouts, want exactly N-1 = %d", flat, want)
			}
			if want := int64(2 * (cs.n - 1)); repaired != want {
				t.Errorf("flat resilient alltoall sent %d scouts, want 2(N-1)=%d", repaired, want)
			}
		})
	}
	t.Run("n=256 bound", func(t *testing.T) {
		if testing.Short() {
			t.Skip("256-rank sim in -short mode")
		}
		const n, fanout = 256, 4
		if two := measure(n, fanout, 1, core.TwoLevelAlgorithms()); two != n-1 {
			t.Errorf("two-level alltoall sent %d scouts at N=256, want exactly N-1 = %d", two, n-1)
		}
	})
}

// TestTwoLevelAllgatherBeatsFlat pins the figure 14h point at N=8 with
// 5000-byte chunks on the shared-uplink fabric — the smallest
// multi-segment point, where the old combine-based schedule paid a 12%
// premium for the phase-A chunk copies: the two-level allgather's
// worst-rank completion must be no later than the flat binary set's.
// Both now run the same burst.
func TestTwoLevelAllgatherBeatsFlat(t *testing.T) {
	const n, chunk = 8, 5000
	measure := func(algs mpi.Algorithms) int64 {
		lat := make([]int64, n)
		_, err := cluster.RunSim(n, simnet.SwitchShared, sharedProf(4), algs, func(c *mpi.Comm) error {
			t0 := c.Now()
			if err := workload.Make(c, workload.OpAllgather, chunk, 0)(); err != nil {
				return err
			}
			lat[c.Rank()] = c.Now() - t0
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var worst int64
		for _, l := range lat {
			if l > worst {
				worst = l
			}
		}
		return worst
	}
	two := measure(core.TwoLevelAlgorithms())
	flat := measure(core.Algorithms(core.Binary))
	if two > flat {
		t.Errorf("two-level allgather %d ns is slower than flat binary %d ns at N=%d/%dB (fig 14h gap must be <= 0)",
			two, flat, n, chunk)
	}
}

// TestTwoLevelRegimes counts the frames of one cold operation on the
// shared-uplink switch (fanout 4) to show which schedule runs: the
// two-level scatter and gather inside their regimes (the scatter from
// N=32, the gather from N=16, every segment's block of chunks within one
// frame), the flat set's outside them, and the flat bcast and barrier
// everywhere. Inside, the scatter sends N-1 scouts up the binary tree
// and one block per segment, S data frames. The gather sends no scout
// and no control frame, and N-1 data frames — (N-S) member chunks and
// S-1 leader blocks — as many as the flat point-to-point gather, so the
// root's delivered messages tell the two apart: (F_root-1) + (S-1)
// against N-1. Both two-level sets send the same frames there. While the
// gather gated both levels it sent (N-S) member and S-1 leader scouts,
// S segment releases and S-1 root-to-leader releases. Outside, every
// count reads what mcast-binary's does: the scatter at N=64, 2,000 B
// sends its N-1 slices, two frames each. The regime began at N=16 for
// both while the flat set sliced every scatter and gated every gather;
// its case at N=17 (scatter, 356 B) was inside it then, and the gather's
// at N=18, 300 B and N=32, 100 B were outside it from N=64 until the
// gather stopped gating.
func TestTwoLevelRegimes(t *testing.T) {
	classes := []transport.Class{transport.ClassScout, transport.ClassControl, transport.ClassData}
	// counts are the scout, control and data frames and the messages
	// delivered to the root, rank 0; plan is the schedule every rank
	// named (plannedSchedule).
	counts := func(algs mpi.Algorithms, n, size int, op workload.Op) (got [4]int64, plan int64) {
		prof := sharedProf(4)
		prof.Trace = trace.NewRecorder()
		nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
			return workload.Make(c, op, size, 0)()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, class := range classes {
			got[i] = nw.Wire.Frames(class)
		}
		got[3] = nw.Endpoint(0).Delivered().Messages
		return got, plannedSchedule(t, prof.Trace, n)
	}
	for _, cs := range []struct {
		op      workload.Op
		n, size int
		inside  bool
		plan    int64 // the schedule the two-level set names
	}{
		{workload.OpScatter, 32, 100, true, core.PlanSegmentRound},
		{workload.OpScatter, 33, 356, true, core.PlanSegmentRound}, // a singleton segment, a block of exactly one frame
		{workload.OpScatter, 17, 356, false, core.PlanPointToPoint},
		{workload.OpScatter, 32, 2000, false, core.PlanPointToPoint},
		{workload.OpScatter, 32, 357, false, core.PlanPointToPoint},
		{workload.OpScatter, 8, 100, false, core.PlanPointToPoint},
		{workload.OpGather, 64, 100, true, core.PlanNestedP2P},
		{workload.OpGather, 66, 300, true, core.PlanNestedP2P}, // uneven segments
		{workload.OpGather, 32, 100, true, core.PlanNestedP2P},
		{workload.OpGather, 18, 300, true, core.PlanNestedP2P},
		{workload.OpGather, 16, 356, true, core.PlanNestedP2P}, // a block of exactly one frame
		{workload.OpGather, 15, 100, false, core.PlanPointToPoint},
		{workload.OpGather, 32, 357, false, core.PlanPointToPoint},
		{workload.OpGather, 32, 2000, false, core.PlanPointToPoint},
		{workload.OpGather, 8, 100, false, core.PlanPointToPoint},
		{workload.OpBcast, 32, 100, false, noPlan},
		{workload.OpBarrier, 32, 0, false, noPlan},
	} {
		name := fmt.Sprintf("%s/n=%d/%dB", cs.op, cs.n, cs.size)
		two, twoPlan := counts(core.TwoLevelAlgorithms(), cs.n, cs.size, cs.op)
		flat, flatPlan := counts(core.Algorithms(core.Binary), cs.n, cs.size, cs.op)
		if twoPlan != cs.plan {
			t.Errorf("%s: two-level planned schedule %d, want %d", name, twoPlan, cs.plan)
		}
		if !cs.inside {
			if flatPlan != cs.plan {
				t.Errorf("%s: flat planned schedule %d, want %d", name, flatPlan, cs.plan)
			}
			if two != flat {
				t.Errorf("%s: two-level sent %v scout/control/data frames and root messages, flat %v; want the flat schedule", name, two, flat)
			}
			continue
		}
		tm := topo.Uniform(cs.n, 4)
		n, s := int64(cs.n), int64(tm.Segments())
		want := [4]int64{n - 1, 0, s, two[3]} // the scatter's root hears only scouts
		if cs.op == workload.OpGather {
			want = [4]int64{0, 0, n - 1, int64(len(tm.Members(0))-1) + s - 1}
			if flat[3] != n-1 {
				t.Errorf("%s: the flat gather's root heard %d messages, want N-1 = %d", name, flat[3], n-1)
			}
			if rep, repPlan := counts(core.TwoLevelResilientAlgorithms(), cs.n, cs.size, cs.op); rep != two || repPlan != twoPlan {
				t.Errorf("%s: mcast-2level-resilient sent %v and planned %d, mcast-2level %v and %d; want the same gather", name, rep, repPlan, two, twoPlan)
			}
		}
		if two != want {
			t.Errorf("%s: two-level sent %v scout/control/data frames and root messages, want %v", name, two, want)
		}
		if two == flat {
			t.Errorf("%s: two-level sent the flat schedule's %v inside its regime", name, flat)
		}
	}
	// The scatter at N=64, 2,000 B: the flat set's sliced round, N-1
	// slice multicasts of two frames.
	if got, plan := counts(core.TwoLevelAlgorithms(), 64, 2000, workload.OpScatter); [3]int64(got[:3]) != [3]int64{63, 0, 2 * 63} || plan != core.PlanSlicedRound {
		t.Errorf("scatter N=64 2,000 B: %v scout/control/data frames and schedule %d, want N-1 scouts, 2(N-1) = 126 data frames and the sliced round", got[:3], plan)
	}
}

// noPlan is what plannedSchedule returns for an operation no rank
// planned: the sets' bcast and barrier have one schedule.
const noPlan = -1

// plannedSchedule returns the schedule every rank of a traced run named
// in its "plan" trace instant (core's plan), as TestPlanIsTraced reads
// it, or noPlan where none did. Every rank must name the same one, once.
func plannedSchedule(t *testing.T, rec *trace.Recorder, n int) int64 {
	t.Helper()
	plan, ranks := int64(noPlan), map[int32]bool{}
	for _, e := range rec.Events() {
		if e.Kind != trace.Instant || e.Name != "plan" {
			continue
		}
		if ranks[e.Rank] || len(ranks) > 0 && e.Arg != plan {
			t.Errorf("rank %d planned %d after %d plan instants naming %d", e.Rank, e.Arg, len(ranks), plan)
		}
		ranks[e.Rank], plan = true, e.Arg
	}
	if len(ranks) != 0 && len(ranks) != n {
		t.Errorf("%d of %d ranks recorded a plan", len(ranks), n)
	}
	return plan
}
