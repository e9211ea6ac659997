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
// slicing are all exercised.
var twoLevelGrid = coretest.Grid([]int{2, 6, 7, 8, 16}, []int{0, 1, 1500, 4000})

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
			if st.McastDropsNotPosted != 0 || st.InjectedLosses != 0 || st.QueueDrops != 0 {
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
// sub-frame segment blocks (leaders multicast) and multi-frame slices
// (every rank multicasts), the result must be right with no multicast
// fragment dropped and no rank left blocked.
func TestChunkedStrictPostedScoutFree(t *testing.T) {
	prof := sharedProf(4)
	prof.StrictPosted = true
	for _, n := range []int{32, 64} {
		for _, size := range []int{100, 2000, 65536} {
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

// TestTwoLevelInjectedLoss: random multicast fragment loss (leader
// rounds, fan-outs and segment releases are all multicast) plus p2p
// loss (member chunks, aggregate blocks, releases and the repair
// protocol itself), recovered by the resilient two-level set.
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
// still conform.
func TestTwoLevelLeaderLoss(t *testing.T) {
	const n, fanout = 8, 4
	leader := topo.Uniform(n, fanout).Leader(1) // rank 4
	for _, chunk := range []int{1, 1500} {
		chunk := chunk
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
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
			nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
				return coretest.Conformance(c, chunk, 0)
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
	flat := run(core.Algorithms(core.BinaryPipelined))
	for _, class := range []transport.Class{transport.ClassScout, transport.ClassData, transport.ClassControl, transport.ClassNack} {
		if got, want := twoLevel.Wire.Frames(class), flat.Wire.Frames(class); got != want {
			t.Errorf("single-segment two-level sent %d %v frames, flat sent %d", got, class, want)
		}
	}
}

// TestTwoLevelScoutEconomy counts the scouts of both allgather
// schedules on the shared-uplink fabric. Lossless, the two-level set
// runs the flat set's burst: N-1 scouts, exactly the flat allgather's.
// Under repair it keeps the combine-based schedule, whose handshake is
// (N-S) member scouts plus S(S-1) leader-round scouts — under the
// N + S² + S bound and the flat resilient rounds' N(N-1).
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
			if want := int64((cs.n - s) + s*(s-1)); two != want {
				t.Errorf("resilient two-level allgather sent %d scouts, want exactly %d", two, want)
			}
			if bound := int64(cs.n + s*s + s); two > bound {
				t.Errorf("resilient two-level allgather sent %d scouts, above the N+S²+S bound %d", two, bound)
			}
			if flat != int64(cs.n*(cs.n-1)) {
				t.Errorf("resilient flat allgather sent %d scouts, want N(N-1)=%d", flat, cs.n*(cs.n-1))
			}
		})
	}
}

// TestTwoLevelUnevenSegments pins the uneven-placement bookkeeping
// directly: 7 ranks at fanout 3 give segments of 3, 3 and 1 — a
// singleton segment whose leader has no local phase at all — and the
// full conformance pass must hold for roots in every kind of segment.
func TestTwoLevelUnevenSegments(t *testing.T) {
	prof := sharedProf(3)
	for _, root := range []int{0, 4, 6} { // leader, member, singleton leader
		root := root
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			nw, err := cluster.RunSim(7, simnet.SwitchShared, prof, core.TwoLevelAlgorithms(), func(c *mpi.Comm) error {
				if tm := c.Topo(); tm == nil || tm.Segments() != 3 || len(tm.Members(2)) != 1 {
					return fmt.Errorf("expected segments 3/3/1, got %v", tm)
				}
				return coretest.Conformance(c, 1000, root)
			})
			if err != nil {
				t.Fatal(err)
			}
			if drops := nw.SwitchStats().QueueDrops; drops != 0 {
				t.Fatalf("%d silent egress drops", drops)
			}
		})
	}
}

// TestTwoLevelAlltoallScoutEconomy pins the alltoall decomposition's
// handshake budget: one burst, whose barrier sends N-1 scouts, versus
// the flat alltoall's N rounds of N-1 — 255 against 65,280 at N=256.
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
			if want := int64(cs.n - 1); two != want {
				t.Errorf("two-level alltoall sent %d scouts, want exactly N-1 = %d", two, want)
			}
			if want := int64(cs.n * (cs.n - 1)); flat != want {
				t.Errorf("flat alltoall sent %d scouts, want N(N-1)=%d", flat, want)
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

// TestTwoLevelAllgatherBeatsFlatPipelined pins the figure 14h point at
// N=8 with 5000-byte chunks on the shared-uplink fabric — the smallest
// multi-segment point, where the old combine-based schedule paid a 12%
// premium for the phase-A chunk copies: the two-level allgather's
// worst-rank completion must be no later than the flat pipelined
// schedule's. Both now run the same burst.
func TestTwoLevelAllgatherBeatsFlatPipelined(t *testing.T) {
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
	flat := measure(core.Algorithms(core.BinaryPipelined))
	if two > flat {
		t.Errorf("two-level allgather %d ns is slower than flat pipelined %d ns at N=%d/%dB (fig 14h gap must be <= 0)",
			two, flat, n, chunk)
	}
}
