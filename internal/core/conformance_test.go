package core_test

// Suite-wide conformance: every algorithm set runs the seven collectives
// through the coretest harness against the pure oracle, on the channel
// transport and on the simulated testbed, then again under strict
// posted-receive semantics with a lagging rank (the losses the scouts
// must prevent) and under deterministic injected fragment loss (the
// losses the NACK-repaired resilient set must recover from). These
// passes replace the per-collective ad-hoc tests this package used to
// carry.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// conformanceSets are the algorithm selections under cross-validation.
// The baseline is the MPICH point-to-point suite, whose pass is also the
// check of the harness itself.
var conformanceSets = []struct {
	name string
	algs mpi.Algorithms
}{
	{"baseline", baseline.Algorithms()},
	{"mcast-binary", core.Algorithms(core.Binary)},
	{"mcast-linear", core.Algorithms(core.Linear)},
	{"mcast-resilient", core.ResilientAlgorithms()},
	{"mcast-chunked", chunkedAlgorithms()},
	// On these flat surfaces (mem, plain switch) the two-level sets must
	// be indistinguishable from the flat suites they delegate to; their
	// native shared-uplink conformance lives in twolevel_test.go.
	{"mcast-2level", core.TwoLevelAlgorithms()},
	{"mcast-2level-resilient", core.TwoLevelResilientAlgorithms()},
}

// chunkedAlgorithms is the binary suite with the Rabenseifner-style
// chunked allreduce: a per-slice binomial reduce-scatter, then a
// multicast allgather of the reduced slices — a burst on a flat fabric,
// the scout-free gather on even shared-uplink segments (where
// twolevel_test.go runs it).
func chunkedAlgorithms() mpi.Algorithms {
	algs := core.Algorithms(core.Binary)
	algs.Allreduce = core.AllreduceMcastChunked
	return algs
}

func TestConformanceMem(t *testing.T) {
	cases := coretest.Grid([]int{1, 2, 3, 5, 8}, []int{0, 1, 7, 1000, 4000})
	for _, set := range conformanceSets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			coretest.Check(t, coretest.MemRunner(), set.algs, cases)
		})
	}
}

func TestConformanceSim(t *testing.T) {
	cases := coretest.Grid([]int{2, 5, 8}, []int{0, 1, 1500})
	for _, set := range conformanceSets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			st := coretest.Check(t, coretest.SimRunner(simnet.Switch, simnet.DefaultProfile(), 0), set.algs, cases)
			if st.McastDropsNotPosted != 0 || st.InjectedLosses != 0 {
				t.Fatalf("lossless profile reported losses: %+v", st)
			}
		})
	}
}

// TestConformanceStrictLaggingRank extends the paper's central claim to
// the whole suite: under VIA-style strict posted-receive semantics a
// rank that enters 2 ms late must not cost a single multicast fragment,
// because every data multicast is scout-gated on it.
func TestConformanceStrictLaggingRank(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	cases := coretest.Grid([]int{2, 5, 8}, []int{0, 1, 1500})
	// The resilient set's receivers stay silent for seven probe periods
	// before asking for a message of which nothing arrived, far beyond
	// the injected lag, so no premature repair fires (a repair duplicate
	// landing on a rank that has moved on would itself count as an
	// unposted drop).
	sets := []struct {
		name string
		algs mpi.Algorithms
	}{
		{"mcast-binary", core.Algorithms(core.Binary)},
		{"mcast-linear", core.Algorithms(core.Linear)},
		{"mcast-chunked", chunkedAlgorithms()},
		{"mcast-resilient", core.ResilientAlgorithms()},
	}
	for _, set := range sets {
		set := set
		t.Run(set.name, func(t *testing.T) {
			st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 2*sim.Millisecond), set.algs, cases)
			if st.McastDropsNotPosted != 0 {
				t.Fatalf("scout gating lost %d multicast fragments", st.McastDropsNotPosted)
			}
		})
	}
}

// TestBurstStrictEveryLaggard sweeps the lagging rank that
// TestConformanceStrictLaggingRank fixes at N/2 over every rank, for the
// collectives that end in one exchange — the alltoall and the
// allgather, under the binary and the linear scout gathers, behind the
// barrier's handshake, and the chunked allreduce, whose reduced slices
// gather with no scouts behind its reduce-scatter — on a switch, where
// every rank fires at once, and on a hub, where the ranks take their
// turns in slot order. At N ∈ {8, 16} and chunks of 0, 1, 1,500 and
// 4,500 B, the laggard enters 50 µs (inside the handshake) or 2 ms
// (after every other rank has posted) late. The chunked allreduce also
// runs on the shared-uplink switch (fanout 4) at N ∈ {7, 10}: uneven
// segments, where its one-level reduce-scatter gates a gather grouped
// by segment. Under strict posted receives not one multicast fragment
// may meet an unposted receiver, and no switch queue may drop: the
// evidence must reach a rank only after its standing descriptors are
// up, wherever the slow rank sits.
func TestBurstStrictEveryLaggard(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	type fabric struct {
		topo simnet.Topology
		prof simnet.Profile
		ns   []int
	}
	type sweep struct {
		op, set string
		algs    mpi.Algorithms
		fabrics []fabric
	}
	flat := []fabric{{simnet.Switch, prof, []int{8, 16}}, {simnet.Hub, prof, []int{8, 16}}}
	shared := prof
	shared.UplinkFanout = 4
	var sweeps []sweep
	for _, op := range []string{"alltoall", "allgather"} {
		for _, mode := range []core.Mode{core.Binary, core.Linear} {
			sweeps = append(sweeps, sweep{op, mode.String(), core.Algorithms(mode), flat})
		}
	}
	sweeps = append(sweeps, sweep{"allreduce", "chunked", chunkedAlgorithms(), append(flat, fabric{simnet.SwitchShared, shared, []int{7, 10}})})
	for _, sw := range sweeps {
		t.Run(fmt.Sprintf("%s/%s", sw.op, sw.set), func(t *testing.T) {
			for _, fab := range sw.fabrics {
				topo := fab.topo
				for _, n := range fab.ns {
					for _, chunk := range []int{0, 1, 1500, 4500} {
						for laggard := range n {
							for _, lag := range []sim.Duration{50 * sim.Microsecond, 2 * sim.Millisecond} {
								st, err := coretest.LaggardRunner(topo, fab.prof, laggard, lag)(n, sw.algs, func(c *mpi.Comm) error {
									return coretest.CheckOp(c, sw.op, chunk, 0)
								})
								at := fmt.Sprintf("%s n=%d chunk=%d laggard %d by %d µs", topo, n, chunk, laggard, lag/sim.Microsecond)
								if err != nil {
									t.Errorf("%s: %v", at, err)
								}
								if st.McastDropsNotPosted != 0 || st.QueueDrops != 0 {
									t.Errorf("%s: %d unposted multicast drops, %d queue drops", at, st.McastDropsNotPosted, st.QueueDrops)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestConformanceAlltoallAcceptance is the acceptance grid: the whole
// suite — and Alltoall in particular — for every N in 2..8 and message
// sizes {1, 1500, 4·1500} bytes.
func TestConformanceAlltoallAcceptance(t *testing.T) {
	var cases []coretest.Case
	for n := 2; n <= 8; n++ {
		for _, chunk := range []int{1, 1500, 4 * 1500} {
			cases = append(cases, coretest.Case{N: n, Chunk: chunk, Root: 0})
		}
	}
	for _, set := range []struct {
		name string
		algs mpi.Algorithms
	}{
		{"mcast-binary", core.Algorithms(core.Binary)},
	} {
		set := set
		t.Run(set.name, func(t *testing.T) {
			coretest.Check(t, coretest.MemRunner(), set.algs, cases)
			coretest.Check(t, coretest.SimRunner(simnet.Switch, simnet.DefaultProfile(), 0), set.algs, cases)
		})
	}
}

// TestConformanceInjectedLoss drives the acceptance grid through the
// NACK-repaired resilient suite with deterministic (seeded) fragment
// loss: every collective must still match the oracle on every rank.
// Repair is fragment-granular (the NACK names the missing fragments and
// the sender retransmits only those, under the original message id), so
// unlike PR 2's whole-message resend, large multi-fragment rounds
// survive rates that would have made an intact re-multicast vanishingly
// unlikely — the graded rates here are kept as the historical stress
// grid, and TestConformanceGradedLossSweep asserts the repair-cost
// scaling directly.
func TestConformanceInjectedLoss(t *testing.T) {
	grids := []struct {
		name   string
		rate   float64
		chunks []int
	}{
		{"rate=0.15", 0.15, []int{1, 1500}},
		{"rate=0.03", 0.03, []int{4 * 1500}},
	}
	for _, g := range grids {
		g := g
		t.Run(g.name, func(t *testing.T) {
			var cases []coretest.Case
			for n := 2; n <= 8; n++ {
				for _, chunk := range g.chunks {
					cases = append(cases, coretest.Case{N: n, Chunk: chunk, Root: 0})
				}
			}
			prof := simnet.DefaultProfile()
			prof.LossRate = g.rate
			prof.Seed = 7
			algs := core.ResilientAlgorithms()
			st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 0), algs, cases)
			if st.InjectedLosses == 0 {
				t.Fatal("loss injection never fired; the resilience claim is vacuous")
			}
			t.Logf("recovered from %d injected fragment losses", st.InjectedLosses)
		})
	}
}

// TestConformanceP2PLoss drops point-to-point frames — the loss the
// paper's model (and PR 3's NACK protocol) never covered: reduce halves,
// gather chunks, scouts, repair NACKs, and the stream layer's own acks
// and probes are all fair game. The reliable p2p stream must make every
// collective loss-free for every frame kind:
//
//   - under pure p2p loss, the plain scout-gated suite survives (its
//     multicast data is not at risk, and all its p2p rides the stream);
//   - under combined multicast + p2p loss, the resilient suite survives
//     both: the NACK protocol repairs multicast data while the stream
//     repairs everything point-to-point, including lost NACKs and
//     repair-of-repair exchanges.
func TestConformanceP2PLoss(t *testing.T) {
	cases := coretest.Grid([]int{2, 5, 8}, []int{0, 1, 1500, 4 * 1500})
	for _, rate := range []float64{0.01, 0.05, 0.15} {
		rate := rate
		t.Run(fmt.Sprintf("p2p=%g", rate), func(t *testing.T) {
			t.Run("mcast-binary", func(t *testing.T) {
				prof := simnet.DefaultProfile()
				prof.P2PLossRate = rate
				prof.Seed = 23
				st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 0), core.Algorithms(core.Binary), cases)
				if st.InjectedP2PLosses == 0 {
					t.Fatal("p2p loss injection never fired; the claim is vacuous")
				}
				if st.StreamRetransmits == 0 {
					t.Fatal("losses were injected but nothing was retransmitted")
				}
				t.Logf("recovered from %d injected p2p losses with %d retransmitted fragments",
					st.InjectedP2PLosses, st.StreamRetransmits)
			})
			t.Run("mcast-resilient", func(t *testing.T) {
				prof := simnet.DefaultProfile()
				prof.P2PLossRate = rate
				prof.LossRate = rate / 3
				prof.Seed = 29
				algs := core.ResilientAlgorithms()
				st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 0), algs, cases)
				if st.InjectedP2PLosses == 0 || st.InjectedLosses == 0 {
					t.Fatalf("loss injection never fired (mcast=%d p2p=%d)", st.InjectedLosses, st.InjectedP2PLosses)
				}
				t.Logf("recovered from %d mcast + %d p2p losses (%d stream retransmits, %d nacks)",
					st.InjectedLosses, st.InjectedP2PLosses, st.StreamRetransmits, st.NackFrames)
			})
		})
	}
}

// TestConformanceP2PLossBaseline covers the MPICH baselines in the loss
// sweep — previously impossible: the modeled-TCP path was exempt from
// the loss model by fiat (and its kernelAck frames were fake,
// undroppable messages). Now every Reliable=true message rides the same
// per-peer stream as the bypass traffic, acknowledged eagerly like the
// kernel's TCP, and any of its frames — data, the eager acks, probes —
// may be dropped and must be repaired.
func TestConformanceP2PLossBaseline(t *testing.T) {
	cases := coretest.Grid([]int{2, 5, 8}, []int{0, 1, 1500, 4 * 1500})
	for _, rate := range []float64{0.01, 0.05, 0.15} {
		rate := rate
		t.Run(fmt.Sprintf("p2p=%g", rate), func(t *testing.T) {
			prof := simnet.DefaultProfile()
			prof.P2PLossRate = rate
			prof.Seed = 31
			st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 0), baseline.Algorithms(), cases)
			if st.InjectedP2PLosses == 0 {
				t.Fatal("p2p loss injection never fired on the baseline; the claim is vacuous")
			}
			if st.StreamRetransmits == 0 {
				t.Fatal("losses were injected but nothing was retransmitted")
			}
			t.Logf("baseline recovered from %d injected p2p losses with %d retransmitted fragments",
				st.InjectedP2PLosses, st.StreamRetransmits)
		})
	}
}

// TestAlltoallLossWithoutRepairDeadlocks is the converse: the same loss
// injection against the scout-only alltoall (no repair protocol) kills a
// data fragment and the collective deadlocks — the failure mode the
// resilient set exists to absorb, and proof the injection bites.
func TestAlltoallLossWithoutRepairDeadlocks(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.LossRate = 0.3
	prof.Seed = 3
	nw, err := cluster.RunSim(6, simnet.Switch, prof, core.Algorithms(core.Binary),
		func(c *mpi.Comm) error {
			send := make([]byte, 6*1500)
			recv := make([]byte, 6*1500)
			return c.Alltoall(send, recv)
		})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("expected deadlock from lost fragments, got %v", err)
	}
	if nw.Stats.InjectedLosses == 0 {
		t.Fatal("expected injected losses")
	}
}

// TestConformanceGradedLossSweep is the fragment-granular repair-cost
// claim, measured through the conformance harness: the resilient suite
// runs at loss rates p ∈ {0.1%, 1%, 5%} across a fragment-count grid
// (1, 5 and 17 fragments per chunk), and the extra data frames beyond
// the loss-free baseline must track the number of injected losses — not
// the fragment count of the messages being repaired, which is what
// message-level resend would cost. Each lost fragment should cost O(1)
// repair frames (the retransmitted fragment, occasionally more when a
// repair is itself lost or a probe fires early), so the per-loss repair
// ratio is asserted flat across the grid.
func TestConformanceGradedLossSweep(t *testing.T) {
	// The chunk grid spans 1, 5, 12 and 81 fragments per message. PR 3
	// capped it below the switch's 64-frame egress queue because the
	// gather funnel ((N-1) senders converging ceil(M/T) fragments each on
	// the root's port) silently tail-dropped point-to-point frames that
	// no protocol repaired; switch flow control (and, independently, the
	// reliable p2p stream) lifted the cap, so the 81-fragment row now
	// runs the funnel at 405 converging frames. The rate grid extends to
	// p = 15%, where repair multicasts themselves lose fragments and the
	// probe timer must scale with the observed inter-fragment arrival gap
	// to avoid NACK storms.
	const n = 6
	algs := core.ResilientAlgorithms()
	for _, chunk := range []int{1400, 7000, 16000, 114000} { // 1, 5, 12, 81 fragments
		chunk := chunk
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			cases := []coretest.Case{{N: n, Chunk: chunk, Root: 0}}
			baselineProf := simnet.DefaultProfile()
			base := coretest.Check(t, coretest.SimRunner(simnet.Switch, baselineProf, 0), algs, cases)
			if base.InjectedLosses != 0 {
				t.Fatalf("loss-free baseline reported %d losses", base.InjectedLosses)
			}
			if base.QueueDrops != 0 {
				t.Fatalf("flow control let %d frames tail-drop", base.QueueDrops)
			}
			for _, rate := range []float64{0.001, 0.01, 0.05, 0.15} {
				rate := rate
				t.Run(fmt.Sprintf("p=%g", rate), func(t *testing.T) {
					prof := simnet.DefaultProfile()
					prof.LossRate = rate
					prof.Seed = 11
					st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 0), algs, cases)
					extra := st.DataFrames - base.DataFrames
					if st.InjectedLosses == 0 {
						if extra != 0 {
							t.Fatalf("no losses but %d extra data frames", extra)
						}
						t.Skipf("rate %g injected no losses on this grid", rate)
					}
					// O(missing): each injected loss may cost a handful of
					// repair frames (the fragment itself, plus occasional
					// full resends when a repair races a backoff probe), but
					// never the full fragment count of a large message.
					perLoss := float64(extra) / float64(st.InjectedLosses)
					if perLoss > 4.0 {
						t.Errorf("repair cost %.1f data frames per lost fragment (extra=%d losses=%d) — repair is not fragment-granular",
							perLoss, extra, st.InjectedLosses)
					}
					t.Logf("rate=%g: losses=%d extra data frames=%d (%.2f/loss), nacks=%d",
						rate, st.InjectedLosses, extra, perLoss, st.NackFrames)
				})
			}
			// The acceptance row: p = 15% multicast loss WITH p2p loss
			// enabled — any frame kind may vanish, repair-of-repair
			// included — and the total repair cost stays bounded per loss.
			t.Run("p=0.15+p2p", func(t *testing.T) {
				prof := simnet.DefaultProfile()
				prof.LossRate = 0.15
				prof.P2PLossRate = 0.05
				prof.Seed = 13
				st := coretest.Check(t, coretest.SimRunner(simnet.Switch, prof, 0), algs, cases)
				if st.InjectedLosses == 0 || st.InjectedP2PLosses == 0 {
					t.Fatalf("loss injection never fired (mcast=%d p2p=%d)", st.InjectedLosses, st.InjectedP2PLosses)
				}
				extra := st.DataFrames - base.DataFrames
				losses := st.InjectedLosses + st.InjectedP2PLosses
				perLoss := float64(extra) / float64(losses)
				if perLoss > 4.0 {
					t.Errorf("combined repair cost %.1f data frames per loss (extra=%d mcast=%d p2p=%d)",
						perLoss, extra, st.InjectedLosses, st.InjectedP2PLosses)
				}
				t.Logf("mcast losses=%d p2p losses=%d extra data frames=%d (%.2f/loss), nacks=%d stream retransmits=%d",
					st.InjectedLosses, st.InjectedP2PLosses, extra, perLoss, st.NackFrames, st.StreamRetransmits)
			})
		})
	}
}
