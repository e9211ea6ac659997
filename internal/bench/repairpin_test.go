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

// suitePin is what TestRepairSuiteDeterminismPin holds of one row (set,
// fabric, operation): the measured collective's longest-rank simulated
// nanoseconds and the world's engine events, each summed over the row's
// seeds, and an FNV-1a fold of every repetition's pair in seed order — a
// repetition that moves by a nanosecond moves the hash even when another
// moves back.
type suitePin struct {
	simNS  int64
	events uint64
	hash   uint64
}

// runSuitePin simulates one row of the suite pin: per seed, one warm-up
// of op, a barrier, up to 15 µs of per-rank skew and one measured op of
// 3,000 B on 16 ranks at 5 % multicast and 2 % point-to-point loss. It
// also returns the frames the simulator dropped over the row.
func runSuitePin(t *testing.T, topo simnet.Topology, alg Algorithm, op workload.Op) (suitePin, int64) {
	t.Helper()
	const (
		procs = 16
		size  = 3000
		seeds = 12
	)
	algs, err := Set(alg)
	if err != nil {
		t.Fatal(err)
	}
	pin := suitePin{hash: 14695981039346656037}
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			pin.hash = (pin.hash ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
	var losses int64
	for seed := uint64(1); seed <= seeds; seed++ {
		prof := simnet.DefaultProfile()
		prof.Seed = seed
		prof.LossRate, prof.P2PLossRate = 0.05, 0.02
		skewRng := sim.NewRand(seed ^ 0xD1CE)
		skews := make([]sim.Duration, procs)
		for i := range skews {
			skews[i] = skewRng.Duration(15 * sim.Microsecond)
		}
		var worst int64 // ranks run one at a time under the engine
		nw, err := cluster.RunSim(procs, topo, prof, algs, func(c *mpi.Comm) error {
			run := workload.Make(c, op, size, 0)
			if err := run(); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			cluster.SimComm(c).Proc().Sleep(skews[c.Rank()])
			start := c.Now()
			if err := run(); err != nil {
				return err
			}
			if d := c.Now() - start; d > worst {
				worst = d
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v/%s/%s seed %d: %v", topo, alg, op, seed, err)
		}
		pin.simNS += worst
		pin.events += nw.Events()
		fold(uint64(worst))
		fold(nw.Events())
		losses += nw.Stats.InjectedLosses + nw.Stats.InjectedP2PLosses
	}
	return pin, losses
}

// TestRepairSuiteDeterminismPin widens the repair pin from three
// operations of the flat set to all of both resilient sets: every
// collective of mcast-resilient and mcast-2level-resilient, on the plain
// switch (where the two-level set runs its flat fall-backs) and on the
// shared-uplink switch (where it runs the segment-local combine, the
// repaired segment release and the segment-sliced rounds), under
// combined multicast and point-to-point loss. A refactor of the round
// engine, of the release-and-collect loops or of the multicast
// addressing must leave every row where the recording commit found it.
func TestRepairSuiteDeterminismPin(t *testing.T) {
	// Recorded at commit 981cbcd, before the multicast scope became a
	// value: the code under test in that commit is the parent's.
	for _, tc := range []struct {
		topo simnet.Topology
		alg  Algorithm
		op   workload.Op
		want suitePin
	}{
		{simnet.Switch, McastResilient, workload.OpBcast, suitePin{487704224, 62174, 0xfb6732213aee8a55}},
		{simnet.Switch, McastResilient, workload.OpBarrier, suitePin{285290606, 44420, 0x50d12458cb8d9aa}},
		{simnet.Switch, McastResilient, workload.OpAllgather, suitePin{3711640412, 614480, 0xde7a78a97993aef5}},
		{simnet.Switch, McastResilient, workload.OpAllreduce, suitePin{414438739, 68689, 0xc14449391a2d852c}},
		{simnet.Switch, McastResilient, workload.OpScatter, suitePin{701563311, 45571, 0x22f808c95193420b}},
		{simnet.Switch, McastResilient, workload.OpGather, suitePin{450004527, 53789, 0x40bf86a5f239e12a}},
		{simnet.Switch, McastResilient, workload.OpAlltoall, suitePin{5394120020, 507078, 0x2a94ff26c0a6f55e}},
		// No segments on the plain switch: the two-level set runs its
		// flat fall-backs, which are the flat resilient set's rows.
		{simnet.Switch, McastTwoLevelResilient, workload.OpBcast, suitePin{487704224, 62174, 0xfb6732213aee8a55}},
		{simnet.Switch, McastTwoLevelResilient, workload.OpBarrier, suitePin{285290606, 44420, 0x50d12458cb8d9aa}},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAllgather, suitePin{3711640412, 614480, 0xde7a78a97993aef5}},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAllreduce, suitePin{414438739, 68689, 0xc14449391a2d852c}},
		{simnet.Switch, McastTwoLevelResilient, workload.OpScatter, suitePin{701563311, 45571, 0x22f808c95193420b}},
		{simnet.Switch, McastTwoLevelResilient, workload.OpGather, suitePin{450004527, 53789, 0x40bf86a5f239e12a}},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAlltoall, suitePin{5394120020, 507078, 0x2a94ff26c0a6f55e}},
		{simnet.SwitchShared, McastResilient, workload.OpBcast, suitePin{366563633, 37117, 0x30a6a6399e5934a2}},
		{simnet.SwitchShared, McastResilient, workload.OpBarrier, suitePin{236280906, 33701, 0xc3507a85d1d55290}},
		{simnet.SwitchShared, McastResilient, workload.OpAllgather, suitePin{3709979293, 418808, 0xddab7b4545216fa0}},
		{simnet.SwitchShared, McastResilient, workload.OpAllreduce, suitePin{418089447, 49244, 0x1289ed56523697a6}},
		{simnet.SwitchShared, McastResilient, workload.OpScatter, suitePin{599336087, 40405, 0x4f4771785e868f1c}},
		{simnet.SwitchShared, McastResilient, workload.OpGather, suitePin{498436767, 44783, 0xd2ffb76d15326d10}},
		{simnet.SwitchShared, McastResilient, workload.OpAlltoall, suitePin{4598049932, 519840, 0x40ebaf9cdb6c7fee}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpBcast, suitePin{383611522, 41909, 0x559d53dca91b4d8}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpBarrier, suitePin{283117748, 32617, 0xaa8ae60e68218a4f}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAllgather, suitePin{1417073940, 227886, 0x9b9d864155c2b6f0}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAllreduce, suitePin{510749413, 50300, 0x32bce44b2058bc6d}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpScatter, suitePin{846596588, 55429, 0x3afb8e5a7eb4ed57}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpGather, suitePin{372988649, 36235, 0x6a16fe783db8ba23}},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAlltoall, suitePin{17531965094, 705857, 0xc49dd0ea96b72326}},
	} {
		got, losses := runSuitePin(t, tc.topo, tc.alg, tc.op)
		if losses == 0 {
			t.Errorf("%v/%s/%s: no frame was dropped; the row no longer walks a repair path", tc.topo, tc.alg, tc.op)
		}
		if got != tc.want {
			t.Errorf("%v/%s/%s moved:\n got  {%d, %d, %#x}\n want {%d, %d, %#x}", tc.topo, tc.alg, tc.op,
				got.simNS, got.events, got.hash, tc.want.simNS, tc.want.events, tc.want.hash)
		}
	}
}
