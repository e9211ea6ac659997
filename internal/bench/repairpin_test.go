package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/reliab"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// pinned is what a determinism pin records of one simulation.
type pinned struct {
	simNS  int64 // the measured allreduce, longest rank
	events uint64
	stream reliab.Stats
}

// runPinned simulates the pins' fixed program — allgather and allreduce
// to warm up (gather chunks, reduce halves and scouts all ride the
// stream, multicast repair rides NACKs), a barrier, up to 15 µs of
// per-rank skew, one measured allreduce of size bytes — on procs ranks.
func runPinned(t *testing.T, procs int, topo simnet.Topology, alg Algorithm, loss float64) pinned {
	t.Helper()
	const (
		size = 5000
		seed = 3
	)
	algs, err := Set(alg)
	if err != nil {
		t.Fatal(err)
	}
	prof := simnet.DefaultProfile()
	prof.Seed = seed
	prof.LossRate, prof.P2PLossRate = loss, loss
	skewRng := sim.NewRand(seed ^ 0xD1CE)
	skews := make([]sim.Duration, procs)
	for i := range skews {
		skews[i] = skewRng.Duration(15 * sim.Microsecond)
	}
	var worst int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(procs, topo, prof, algs, func(c *mpi.Comm) error {
		for _, op := range []workload.Op{workload.OpAllgather, workload.OpAllreduce} {
			if err := workload.Make(c, op, size, 0)(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		cluster.SimComm(c).Proc().Sleep(skews[c.Rank()])
		start := c.Now()
		if err := workload.Make(c, workload.OpAllreduce, size, 0)(); err != nil {
			return err
		}
		if d := c.Now() - start; d > worst {
			worst = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pinned{simNS: worst, events: nw.Events(), stream: nw.Stats.Stream.Snapshot()}
}

// TestRepairPathDeterminismPin pins the stream repair path the way
// BENCH_sim.json pins the happy path: one sim_loss_n32-shaped point
// (N=32 on the switch, mcast-resilient, 1 % multicast and point-to-point
// loss, fixed seed) must simulate the same microseconds, the same number
// of engine events and the same stream counters as at the commit that
// recorded the constants. Same-instant events run in scheduling order,
// so a control frame emitted after its timer re-arm instead of before,
// an extra wake-up or one more probe timer moves these numbers — and
// fails here rather than only in the benchmark.
func TestRepairPathDeterminismPin(t *testing.T) {
	// Re-recorded by the change that gave the stream a measured clock
	// (probe on a full window, RTO from the estimator, no resend on an
	// ack that cannot know). Before it: simNS 56,796,351, 338,989 events,
	// stream {3308 msgs, 46 retransmits, 2050 probes, 2067 acks sent,
	// 2043 received, 3 dups}.
	want := pinned{
		simNS:  14_797_616,
		events: 270_508,
		stream: reliab.Stats{
			MsgsStreamed: 3016, Retransmits: 33, ProbesSent: 2263,
			AcksSent: 2255, AcksReceived: 2240,
		},
	}
	got := runPinned(t, 32, simnet.Switch, McastResilient, 0.01)
	if got.stream.ProbesSent == 0 || got.stream.Retransmits == 0 || got.stream.AcksSent == 0 {
		t.Fatalf("the pinned point no longer walks the repair path: %+v", got.stream)
	}
	if got != want {
		t.Errorf("repair path moved:\n got  %+v\n want %+v", got, want)
	}
}

// TestPaperRegimeDeterminismPin is the repair pin's lossless twin at the
// paper's regime — eight stations, hub and switch, the scout-gated
// multicast suite and MPICH — recorded at commit b18f93f, before the
// stream read a clock it measured. The regime's claim on the stream is
// that it is not there: the receiver is silent, no window fills, every
// probe is the one that confirms a tail after the traffic quiesced. A
// change to the stream that moves a simulated nanosecond, an event or a
// counter here has put protocol frames on the wire the paper measured.
func TestPaperRegimeDeterminismPin(t *testing.T) {
	for _, tc := range []struct {
		topo simnet.Topology
		alg  Algorithm
		want pinned
	}{
		{simnet.Hub, McastBinary, pinned{5_751_543, 1495, reliab.Stats{MsgsStreamed: 91, ProbesSent: 24, AcksSent: 24, AcksReceived: 24}}},
		{simnet.Hub, MPICH, pinned{9_654_364, 2916, reliab.Stats{MsgsStreamed: 108, AcksSent: 192, AcksReceived: 192}}},
		{simnet.Switch, McastBinary, pinned{3_406_080, 2308, reliab.Stats{MsgsStreamed: 91, ProbesSent: 24, AcksSent: 24, AcksReceived: 24}}},
		{simnet.Switch, MPICH, pinned{5_139_120, 3413, reliab.Stats{MsgsStreamed: 108, AcksSent: 192, AcksReceived: 192}}},
	} {
		if got := runPinned(t, 8, tc.topo, tc.alg, 0); got != tc.want {
			t.Errorf("%v/%s moved:\n got  %+v\n want %+v", tc.topo, tc.alg, got, tc.want)
		}
	}
}
