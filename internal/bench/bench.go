// Package bench is the measurement harness that regenerates every figure
// of the paper's evaluation (Figs. 7–13) plus the extensions and
// ablations listed by Defs in figures.go, using the same methodology as
// the paper: the latency of a collective operation is the longest
// completion time among all participating processes, each point is the
// median of many repetitions, and per-rank entry skew plus CSMA/CD
// backoff randomness provide the sample spread the paper plots.
package bench

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Algorithm names a collective implementation under test.
type Algorithm string

const (
	// MPICH is the baseline: binomial-tree broadcast and three-phase
	// barrier over point-to-point TCP-like messages.
	MPICH Algorithm = "mpich"
	// McastBinary is the paper's binary-tree scout algorithm.
	McastBinary Algorithm = "mcast-binary"
	// McastLinear is the paper's linear scout algorithm.
	McastLinear Algorithm = "mcast-linear"
	// McastPipelined is the binary scout suite with the multi-round
	// collectives pipelined: round r+1's scout gather overlaps round r's
	// data multicast.
	McastPipelined Algorithm = "mcast-pipelined"
	// McastAck is the PVM-style acknowledgment protocol (no scouts,
	// sender repeats until acknowledged).
	McastAck Algorithm = "mcast-ack"
	// Sequencer is the Orca-style sequencer-ordered broadcast.
	Sequencer Algorithm = "sequencer"
	// McastResilient is the full multicast suite with every data
	// multicast protected by fragment-granular NACK repair (the NACK
	// names the missing fragments; the sender retransmits only those).
	McastResilient Algorithm = "mcast-resilient"
	// McastChunked is the binary suite with the Rabenseifner-style
	// chunked allreduce: per-slice binomial reduce-scatter plus the
	// pipelined multicast allgather of the reduced slices, so no rank
	// funnels more than ~2M bytes.
	McastChunked Algorithm = "mcast-chunked"
	// McastTwoLevel is the topology-aware two-level suite: ranks
	// scout-combine to their segment leader, leaders exchange one
	// aggregate per segment across the shared uplinks, and results
	// multicast back down. The set covers alltoall (one burst of
	// segment-group blocks: N-1 scouts where the flat rounds send
	// N(N-1)) and scatter (segment-group super-slice blocks), bcast,
	// gather, allreduce and barrier; its lossless allgather is the flat
	// set's burst. Falls back to the flat algorithms when the device
	// reports no topology (or a degenerate one).
	McastTwoLevel Algorithm = "mcast-2level"
	// McastTwoLevelResilient is McastTwoLevel with every multicast
	// (leader rounds, fan-outs, segment releases) under NACK repair.
	McastTwoLevelResilient Algorithm = "mcast-2level-resilient"
	// Unsafe is multicast with no synchronization at all; it loses
	// messages to slow receivers and exists for the A2 ablation.
	Unsafe Algorithm = "unsafe"
)

// Algorithms lists every registered algorithm selection, for usage text
// and exhaustive smoke tests.
func Algorithms() []Algorithm {
	return []Algorithm{
		MPICH, McastBinary, McastLinear, McastPipelined,
		McastResilient, McastChunked,
		McastTwoLevel, McastTwoLevelResilient,
		McastAck, Sequencer, Unsafe,
	}
}

// Set returns the collective algorithm selection for a.
func Set(a Algorithm) (mpi.Algorithms, error) {
	algs, err := set(a)
	if err == nil {
		algs.Name = string(a)
	}
	return algs, err
}

func set(a Algorithm) (mpi.Algorithms, error) {
	switch a {
	case MPICH:
		return baseline.Algorithms(), nil
	case McastBinary:
		return core.Algorithms(core.Binary), nil
	case McastLinear:
		return core.Algorithms(core.Linear), nil
	case McastPipelined:
		return core.Algorithms(core.BinaryPipelined), nil
	case McastAck:
		return core.AckAlgorithms(), nil
	case McastResilient:
		return core.ResilientAlgorithms(), nil
	case McastChunked:
		algs := core.Algorithms(core.Binary)
		algs.Allreduce = core.AllreduceMcastChunked
		return algs, nil
	case McastTwoLevel:
		return core.TwoLevelAlgorithms(), nil
	case McastTwoLevelResilient:
		return core.TwoLevelResilientAlgorithms(), nil
	case Sequencer:
		return core.SequencerAlgorithms(), nil
	case Unsafe:
		algs := baseline.Algorithms()
		algs.Bcast = core.BcastUnsafe
		return algs, nil
	default:
		return mpi.Algorithms{}, fmt.Errorf("bench: unknown algorithm %q", a)
	}
}

// Op selects the collective operation measured; MsgSize is the per-rank
// chunk in bytes for the rooted and all-to-all collectives.
type Op = workload.Op

const (
	// OpBcast measures MPI_Bcast of MsgSize bytes from Root.
	OpBcast = workload.OpBcast
	// OpBarrier measures MPI_Barrier.
	OpBarrier = workload.OpBarrier
	// OpAllgather measures MPI_Allgather with MsgSize bytes per rank.
	OpAllgather = workload.OpAllgather
	// OpAllreduce measures MPI_Allreduce of exactly MsgSize bytes.
	OpAllreduce = workload.OpAllreduce
	// OpScatter measures MPI_Scatter of MsgSize bytes per rank from Root.
	OpScatter = workload.OpScatter
	// OpGather measures MPI_Gather of MsgSize bytes per rank to Root.
	OpGather = workload.OpGather
	// OpAlltoall measures MPI_Alltoall with MsgSize bytes per rank pair.
	OpAlltoall = workload.OpAlltoall
)

// Scenario is one measurement configuration.
type Scenario struct {
	Procs     int
	Topology  simnet.Topology
	Algorithm Algorithm
	Op        Op
	MsgSize   int
	// Root is the broadcast root (0 unless the scenario says otherwise;
	// the sequencer ablation uses a non-zero root so the forwarding hop
	// to the sequencer is exercised).
	Root int
	// Reps is the number of measured repetitions (the paper used 20–30).
	Reps int
	// Warmups precede measurement so MAC learning and group joins settle.
	Warmups int
	// SkewMax staggers each rank's entry uniformly in [0, SkewMax),
	// modeling the asynchrony of cluster processes.
	SkewMax sim.Duration
	// Seed drives all randomness; rep i uses Seed+i.
	Seed uint64
	// Profile overrides the default calibration when non-nil.
	Profile *simnet.Profile
	// StrictPosted runs the network with VIA-style posted-receive
	// semantics (used by the ablations).
	StrictPosted bool
}

// DefaultScenario fills the methodology constants.
func DefaultScenario() Scenario {
	return Scenario{
		Procs:     4,
		Topology:  simnet.Switch,
		Algorithm: McastBinary,
		Op:        OpBcast,
		Reps:      20,
		Warmups:   2,
		SkewMax:   15 * sim.Microsecond,
		Seed:      1,
	}
}

// Result holds the measured sample distribution in microseconds.
type Result struct {
	Scenario Scenario
	// Samples are per-repetition latencies (µs), in repetition order.
	Samples []float64
	// Failures counts repetitions that did not complete (lost messages
	// under Unsafe, retry exhaustion, …).
	Failures int
}

// Median returns the median sample (0 when empty).
func (r Result) Median() float64 { return quantile(r.Samples, 0.5) }

// Min returns the fastest sample.
func (r Result) Min() float64 { return quantile(r.Samples, 0) }

// Max returns the slowest sample.
func (r Result) Max() float64 { return quantile(r.Samples, 1) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	// Insertion sort: sample counts are tiny.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := q * float64(len(s)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Run executes the scenario: Reps independent simulations, each with its
// own seed (so hub backoff and skew vary), measuring the longest per-rank
// completion time of one collective after warmup.
func Run(s Scenario) (Result, error) {
	if s.Reps <= 0 {
		s.Reps = 1
	}
	res := Result{Scenario: s}
	algs, err := Set(s.Algorithm)
	if err != nil {
		return res, err
	}
	for rep := 0; rep < s.Reps; rep++ {
		_, ns, err := runOnce(s, algs, s.Seed+uint64(rep))
		if err != nil {
			res.Failures++
			continue
		}
		res.Samples = append(res.Samples, float64(ns)/1000.0) // µs
	}
	if len(res.Samples) == 0 {
		return res, fmt.Errorf("bench: all %d repetitions of %s/%s failed", s.Reps, s.Algorithm, s.Op)
	}
	return res, nil
}

// runOnce is one repetition of Run: it returns the world it simulated,
// for its counters, and the measured operation's longest-rank
// nanoseconds.
func runOnce(s Scenario, algs mpi.Algorithms, seed uint64) (*simnet.Network, int64, error) {
	prof := simnet.DefaultProfile()
	if s.Profile != nil {
		prof = *s.Profile
	}
	prof.Seed = seed
	prof.StrictPosted = s.StrictPosted
	skewRng := sim.NewRand(seed ^ 0xD1CE)
	skews := make([]sim.Duration, s.Procs)
	for i := range skews {
		skews[i] = skewRng.Duration(s.SkewMax)
	}
	var worst int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(s.Procs, s.Topology, prof, algs, func(c *mpi.Comm) error {
		op := workload.Make(c, s.Op, s.MsgSize, s.Root)
		for w := 0; w < s.Warmups; w++ {
			if err := op(); err != nil {
				return err
			}
		}
		// Separate the measured repetition from warmup traffic still in
		// flight, then enter with per-rank skew — the usual collective
		// micro-benchmark methodology.
		if err := c.Barrier(); err != nil {
			return err
		}
		cluster.SimComm(c).Proc().Sleep(skews[c.Rank()])
		start := c.Now()
		if err := op(); err != nil {
			return err
		}
		worst = max(worst, c.Now()-start)
		return nil
	})
	return nw, worst, err
}

// coldRun is the other way this package measures: a fresh world runs one
// collective with no warm-up, barrier or entry skew — a deterministic
// timeline needs none, and the callers read frame, event and queue
// counters off the returned network that must hold that one operation
// and nothing else. It also returns the longest rank's nanoseconds.
func coldRun(procs int, topo simnet.Topology, prof simnet.Profile, a Algorithm, op Op, size int) (*simnet.Network, int64, error) {
	algs, err := Set(a)
	if err != nil {
		return nil, 0, err
	}
	var worst int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(procs, topo, prof, algs, func(c *mpi.Comm) error {
		start := c.Now()
		if err := workload.Make(c, op, size, 0)(); err != nil {
			return err
		}
		worst = max(worst, c.Now()-start)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s/%s n=%d size=%d: %w", op, a, procs, size, err)
	}
	return nw, worst, nil
}
