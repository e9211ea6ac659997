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
	// Re-recorded by the change that made repair follow evidence (repair
	// requests on the reassembler's arrival clock, sends confirmed while
	// the network is seen to lose frames). Before it: simNS 14,797,616,
	// 270,508 events, stream {3016 msgs, 33 retransmits, 2263 probes, 2255
	// acks sent, 2240 received}. That this one seed reads 11 % slower is
	// its luck, not the change: it lost no scout before, so it never
	// waited a timeout, and now pays the confirming probes' wire time; the
	// mean over 30 seeds of the same point fell from 30.3 to 12.1 ms
	// (sim_loss_n32's allreduce), and the events fell by two thirds here
	// too. And before the stream read a clock it measured: simNS
	// 56,796,351, 338,989 events, stream {3308 msgs, 46 retransmits, 2050
	// probes, 2067 acks sent, 2043 received, 3 dups}.
	want := pinned{
		simNS:  16_427_118,
		events: 86_164,
		stream: reliab.Stats{
			MsgsStreamed: 2348, Retransmits: 26, ProbesSent: 2490, ConfirmsSent: 2265,
			AcksSent: 2470, AcksReceived: 2449,
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
// The switch/mcast-binary row was re-recorded when the allgather became
// one burst (N-1 scouts instead of N(N-1)): the measured allreduce did
// not move, the events fell from 2,308 and the stream counters from 91
// messages and 24 probes and acks. The hub/mcast-binary row was
// re-recorded when the burst came to one collision domain, the ranks
// multicasting in slot order: 5,751,543 ns and 1,495 events before, and
// the same 91 messages and 24 probes and acks.
func TestPaperRegimeDeterminismPin(t *testing.T) {
	for _, tc := range []struct {
		topo simnet.Topology
		alg  Algorithm
		want pinned
	}{
		{simnet.Hub, McastBinary, pinned{5_660_863, 1011, reliab.Stats{MsgsStreamed: 42, ProbesSent: 7, AcksSent: 7, AcksReceived: 7}}},
		{simnet.Hub, MPICH, pinned{9_654_364, 2916, reliab.Stats{MsgsStreamed: 108, AcksSent: 192, AcksReceived: 192}}},
		{simnet.Switch, McastBinary, pinned{3_406_080, 1683, reliab.Stats{MsgsStreamed: 42, ProbesSent: 7, AcksSent: 7, AcksReceived: 7}}},
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

// newSuitePin returns an empty pin, its hash at the FNV-1a offset basis.
func newSuitePin() suitePin { return suitePin{hash: 14695981039346656037} }

// add records one repetition: its nanoseconds and events are summed, and
// both are folded into the hash, low byte first.
func (p *suitePin) add(simNS int64, events uint64) {
	p.simNS += simNS
	p.events += events
	for _, v := range []uint64{uint64(simNS), events} {
		for i := 0; i < 8; i++ {
			p.hash = (p.hash ^ (v & 0xff)) * 1099511628211
			v >>= 8
		}
	}
}

// runSuitePin simulates one row of the suite pin: per seed, one
// repetition of Run's methodology (a warm-up of op, a barrier, up to
// 15 µs of per-rank skew, the measured op) at 3,000 B on 16 ranks at 5 %
// multicast and 2 % point-to-point loss. It also returns the frames the
// simulator dropped over the row.
func runSuitePin(t *testing.T, topo simnet.Topology, alg Algorithm, op workload.Op) (suitePin, int64) {
	t.Helper()
	algs, err := Set(alg)
	if err != nil {
		t.Fatal(err)
	}
	prof := simnet.DefaultProfile()
	prof.LossRate, prof.P2PLossRate = 0.05, 0.02
	sc := Scenario{
		Procs: 16, Topology: topo, Op: op, MsgSize: 3000,
		Warmups: 1, SkewMax: 15 * sim.Microsecond, Profile: &prof,
	}
	pin := newSuitePin()
	var losses int64
	for seed := uint64(1); seed <= 12; seed++ {
		nw, worst, err := runOnce(sc, algs, seed)
		if err != nil {
			t.Fatalf("%v/%s/%s seed %d: %v", topo, alg, op, seed, err)
		}
		pin.add(worst, nw.Events())
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
	// Re-recorded by the change that made repair follow evidence (repair
	// requests on the reassembler's arrival clock, sends confirmed while
	// the network is seen to lose frames). The table first held what commit
	// 981cbcd simulated, before the multicast scope became a value, and
	// held it unchanged until this change (its events and hashes are in
	// that commit's copy of this file); before keeps each row's summed
	// nanoseconds from then, and every row must stay below it: 1.3 to 9.4
	// times below when recorded.
	for _, tc := range []struct {
		topo   simnet.Topology
		alg    Algorithm
		op     workload.Op
		want   suitePin
		before int64
	}{
		{simnet.Switch, McastResilient, workload.OpBcast, suitePin{136496379, 51716, 0x70e75200178fccd7}, 487704224},
		{simnet.Switch, McastResilient, workload.OpBarrier, suitePin{182456654, 44994, 0x6f7b99078bdffdd5}, 285290606},
		{simnet.Switch, McastResilient, workload.OpAllgather, suitePin{670638763, 374366, 0x583c759a60ca670}, 3711640412},
		{simnet.Switch, McastResilient, workload.OpAllreduce, suitePin{85435704, 54290, 0x86fd77c79684f23c}, 414438739},
		{simnet.Switch, McastResilient, workload.OpScatter, suitePin{242040050, 47766, 0x3fc41fd37da0a6c1}, 701563311},
		{simnet.Switch, McastResilient, workload.OpGather, suitePin{183497970, 49134, 0x129fbcc8f01a0e36}, 450004527},
		{simnet.Switch, McastResilient, workload.OpAlltoall, suitePin{1347688496, 421284, 0x4240af2f79bc4f5a}, 5394120020},
		// No segments on the plain switch: the two-level set runs its
		// flat fall-backs, which are the flat resilient set's rows.
		{simnet.Switch, McastTwoLevelResilient, workload.OpBcast, suitePin{136496379, 51716, 0x70e75200178fccd7}, 487704224},
		{simnet.Switch, McastTwoLevelResilient, workload.OpBarrier, suitePin{182456654, 44994, 0x6f7b99078bdffdd5}, 285290606},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAllgather, suitePin{670638763, 374366, 0x583c759a60ca670}, 3711640412},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAllreduce, suitePin{85435704, 54290, 0x86fd77c79684f23c}, 414438739},
		{simnet.Switch, McastTwoLevelResilient, workload.OpScatter, suitePin{242040050, 47766, 0x3fc41fd37da0a6c1}, 701563311},
		{simnet.Switch, McastTwoLevelResilient, workload.OpGather, suitePin{183497970, 49134, 0x129fbcc8f01a0e36}, 450004527},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAlltoall, suitePin{1347688496, 421284, 0x4240af2f79bc4f5a}, 5394120020},
		{simnet.SwitchShared, McastResilient, workload.OpBcast, suitePin{145761759, 36806, 0xda2c666f7eb98ea4}, 366563633},
		{simnet.SwitchShared, McastResilient, workload.OpBarrier, suitePin{180352115, 35481, 0xa1482a17b3aebd37}, 236280906},
		{simnet.SwitchShared, McastResilient, workload.OpAllgather, suitePin{644527392, 324759, 0x6c13cf7ed7b41c80}, 3709979293},
		{simnet.SwitchShared, McastResilient, workload.OpAllreduce, suitePin{101663927, 43018, 0x8db47eb39a6e3199}, 418089447},
		{simnet.SwitchShared, McastResilient, workload.OpScatter, suitePin{245908511, 44336, 0x2a85a0feb27b7999}, 599336087},
		{simnet.SwitchShared, McastResilient, workload.OpGather, suitePin{189683607, 41538, 0x964330fbe24f5548}, 498436767},
		{simnet.SwitchShared, McastResilient, workload.OpAlltoall, suitePin{1317895951, 438674, 0xd4103fa0c1e84902}, 4598049932},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpBcast, suitePin{72123295, 37646, 0x4f603c2ddb4354b8}, 383611522},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpBarrier, suitePin{131384743, 32585, 0x4151ca0e2cf5cb41}, 283117748},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAllgather, suitePin{372219621, 209420, 0x10019cf4ed07bcea}, 1417073940},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAllreduce, suitePin{75217395, 39209, 0x115813a5330adaa}, 510749413},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpScatter, suitePin{149776115, 50463, 0xd2cd359a0b7f7b74}, 846596588},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpGather, suitePin{227227167, 38356, 0x9ee0c96a7d096e60}, 372988649},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAlltoall, suitePin{1867595534, 348911, 0x7f99967530cbbc2b}, 17531965094},
	} {
		got, losses := runSuitePin(t, tc.topo, tc.alg, tc.op)
		if losses == 0 {
			t.Errorf("%v/%s/%s: no frame was dropped; the row no longer walks a repair path", tc.topo, tc.alg, tc.op)
		}
		if got != tc.want {
			t.Errorf("%v/%s/%s moved:\n got  {%d, %d, %#x}\n want {%d, %d, %#x}", tc.topo, tc.alg, tc.op,
				got.simNS, got.events, got.hash, tc.want.simNS, tc.want.events, tc.want.hash)
		}
		if got.simNS >= tc.before {
			t.Errorf("%v/%s/%s: %d ns over the row's seeds, no faster than the %d ns it took while receivers polled and lost scouts waited a timeout",
				tc.topo, tc.alg, tc.op, got.simNS, tc.before)
		}
	}
}

// TestChunkedFallbackDeterminismPin holds the chunked allreduce's
// one-level reduce-scatter where the two-level one does not apply: on
// uneven segments (N=6 = 4+2 and N=7 = 4+3 on the shared-uplink switch,
// fanout 4) and on the flat switch, one cold operation per point must
// simulate the recorded nanoseconds and engine events. The values were
// re-recorded when the gather of the reduced slices there stopped being
// a burst and became the scout-free gather the even segments run, gated
// by the reduce-scatter: from {1,087,480, 678}, {1,750,780, 703},
// {33,027,480, 2,024}, {1,255,076, 855}, {1,890,892, 888},
// {35,009,924, 2,427}, {1,677,680, 1,219} and {12,564,568, 3,345}, in
// table order — every point faster.
func TestChunkedFallbackDeterminismPin(t *testing.T) {
	shared := *sharedUplinkProfile()
	shared.Seed = 1
	for _, tc := range []struct {
		topo   simnet.Topology
		n      int
		size   int
		simNS  int64
		events uint64
	}{
		{simnet.SwitchShared, 6, 100, 761_552, 615},
		{simnet.SwitchShared, 6, 2000, 1_675_948, 638},
		{simnet.SwitchShared, 6, 65536, 32_001_704, 1950},
		{simnet.SwitchShared, 7, 100, 865_632, 770},
		{simnet.SwitchShared, 7, 2000, 1_773_500, 804},
		{simnet.SwitchShared, 7, 65536, 33_905_224, 2347},
		{simnet.Switch, 8, 2000, 1_129_480, 1130},
		{simnet.Switch, 8, 65536, 11_274_688, 3264},
	} {
		prof := simnet.DefaultProfile()
		if tc.topo == simnet.SwitchShared {
			prof = shared
		}
		nw, worst, err := coldRun(tc.n, tc.topo, prof, McastChunked, OpAllreduce, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		if worst != tc.simNS || nw.Events() != tc.events {
			t.Errorf("%v N=%d %d B moved: got {%d, %d}, want {%d, %d}", tc.topo, tc.n, tc.size, worst, nw.Events(), tc.simNS, tc.events)
		}
	}
}

// TestBurstDeterminismPin holds the scout-free exchange that follows the
// evidence of a two-level collective, where no BENCH_sim.json row looks:
// the two-level allgather and alltoall's burst on uneven segments (N=6 =
// 4+2 and N=7 = 4+3 on the shared-uplink switch, fanout 4), and the
// chunked allreduce's scout-free gather at N=16 on both branches of its
// slice groups (100 B: the segment leaders multicast; 65,536 B: every
// rank does). One cold operation per point must simulate the
// nanoseconds and engine events recorded when every burst took the
// barrier's handshake; the chunked rows hold what was recorded before
// the two exchanges were written as one. The alltoall's 2,000 and
// 65,536 B rows are inside the flat burst's regime (flatAlltoallWins)
// and hold the flat burst's ring-ordered slices, recorded when it came
// in (the two-level blocks read {6,313,180, 526}, {204,440,444, 8,790},
// {7,891,180, 705} and {245,505,420, 12,208}); its 100 B rows hold the
// two-level burst at both segment shapes.
func TestBurstDeterminismPin(t *testing.T) {
	shared := *sharedUplinkProfile()
	shared.Seed = 1
	for _, tc := range []struct {
		alg    Algorithm
		op     Op
		n      int
		size   int
		simNS  int64
		events uint64
	}{
		{McastTwoLevel, OpAllgather, 6, 100, 688_880, 281},
		{McastTwoLevel, OpAllgather, 6, 2000, 1_712_020, 332},
		{McastTwoLevel, OpAllgather, 6, 65536, 40_883_460, 1953},
		{McastTwoLevel, OpAllgather, 7, 100, 749_920, 340},
		{McastTwoLevel, OpAllgather, 7, 2000, 1_906_100, 400},
		{McastTwoLevel, OpAllgather, 7, 65536, 46_580_340, 2371},
		{McastTwoLevel, OpAlltoall, 6, 100, 839_740, 318},
		{McastTwoLevel, OpAlltoall, 6, 2000, 5_489_660, 599},
		{McastTwoLevel, OpAlltoall, 6, 65536, 161_844_444, 7605},
		{McastTwoLevel, OpAlltoall, 7, 100, 929_580, 384},
		{McastTwoLevel, OpAlltoall, 7, 2000, 6_931_420, 802},
		{McastTwoLevel, OpAlltoall, 7, 65536, 215_969_104, 10778},
		{McastChunked, OpAllreduce, 16, 100, 1_063_760, 2140},
		{McastChunked, OpAllreduce, 16, 65536, 31_796_020, 5509},
	} {
		nw, worst, err := coldRun(tc.n, simnet.SwitchShared, shared, tc.alg, tc.op, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		if worst != tc.simNS || nw.Events() != tc.events {
			t.Errorf("%s %s N=%d %d B moved: got {%d, %d}, want {%d, %d}", tc.alg, tc.op, tc.n, tc.size, worst, nw.Events(), tc.simNS, tc.events)
		}
	}
}

// TestReductionDeterminismPin holds the binomial reductions that no
// BENCH_sim.json row or other pin reaches: the two-level allreduce's
// leader tree on uneven segments (N=6 = 4+2, N=7 = 4+3) and on even ones
// (N=16) on the shared-uplink switch, fanout 4, including the empty
// reduction whose fan-out it gates at 0 B; and the MPICH reduce to a
// non-zero root (rank 3 of 7 on the switch), whose tree is rotated. One
// cold operation per point must simulate the nanoseconds and engine
// events recorded before every binomial reduction ran one walk.
func TestReductionDeterminismPin(t *testing.T) {
	shared := *sharedUplinkProfile()
	shared.Seed = 1
	for _, tc := range []struct {
		n      int
		size   int
		simNS  int64
		events uint64
	}{
		{6, 0, 398_940, 200},
		{6, 100, 430_140, 200},
		{6, 2000, 1_355_820, 229},
		{6, 65536, 34_662_204, 1488},
		{7, 0, 410_020, 235},
		{7, 100, 457_220, 235},
		{7, 2000, 1_485_700, 267},
		{7, 65536, 33_655_868, 1707},
		{16, 0, 593_420, 625},
		{16, 100, 660_220, 625},
		{16, 2000, 2_170_460, 701},
		{16, 65536, 47_377_740, 4121},
	} {
		nw, worst, err := coldRun(tc.n, simnet.SwitchShared, shared, McastTwoLevel, OpAllreduce, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		if worst != tc.simNS || nw.Events() != tc.events {
			t.Errorf("%s allreduce N=%d %d B moved: got {%d, %d}, want {%d, %d}", McastTwoLevel, tc.n, tc.size, worst, nw.Events(), tc.simNS, tc.events)
		}
	}

	algs, err := Set(MPICH)
	if err != nil {
		t.Fatal(err)
	}
	const n, root = 7, 3
	for _, tc := range []struct {
		size   int
		simNS  int64
		events uint64
	}{
		{0, 298_480, 243},
		{2000, 1_157_600, 273},
	} {
		var worst int64 // ranks run one at a time under the engine
		nw, err := cluster.RunSim(n, simnet.Switch, simnet.DefaultProfile(), algs, func(c *mpi.Comm) error {
			send, recv := make([]byte, tc.size), make([]byte, tc.size)
			start := c.Now()
			if err := c.Reduce(send, recv, mpi.Byte, mpi.OpSum, root); err != nil {
				return err
			}
			worst = max(worst, c.Now()-start)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if worst != tc.simNS || nw.Events() != tc.events {
			t.Errorf("%s reduce to %d N=%d %d B moved: got {%d, %d}, want {%d, %d}", MPICH, root, n, tc.size, worst, nw.Events(), tc.simNS, tc.events)
		}
	}
}

// TestOneRoundDeterminismPin holds the one-round collectives of the
// lossless flat sets — the paper's broadcast at roots 0 and 3, its
// barrier and the sliced scatter at root 3 — where no other pin looks:
// the linear set, a non-zero root and a rank count that
// is not a power of two, on the hub, the switch and the shared-uplink
// switch (fanout 4). Each row folds one cold operation per grid point
// (bcast at roots 0 and 3 and scatter at root 3, each at 0, 1,000 and
// 5,000 B, then the barrier) at seed 1: the longest rank's simulated
// nanoseconds and the world's engine events, summed, and an FNV-1a fold
// of every point's pair in grid order. A round engine that delays or
// reorders the calls of a single round moves a row.
func TestOneRoundDeterminismPin(t *testing.T) {
	type point struct {
		op   Op
		root int
		size int
	}
	var grid []point
	for _, p := range []struct {
		op   Op
		root int
	}{{OpBcast, 0}, {OpBcast, 3}, {OpScatter, 3}} {
		for _, size := range []int{0, 1000, 5000} {
			grid = append(grid, point{p.op, p.root, size})
		}
	}
	grid = append(grid, point{OpBarrier, 0, 0})

	run := func(alg Algorithm, topo simnet.Topology, n int) suitePin {
		algs, err := Set(alg)
		if err != nil {
			t.Fatal(err)
		}
		prof := simnet.DefaultProfile()
		if topo == simnet.SwitchShared {
			prof = *sharedUplinkProfile()
		}
		prof.Seed = 1
		pin := newSuitePin()
		for _, p := range grid {
			var worst int64 // ranks run one at a time under the engine
			nw, err := cluster.RunSim(n, topo, prof, algs, func(c *mpi.Comm) error {
				op := workload.Make(c, p.op, p.size, p.root)
				start := c.Now()
				if err := op(); err != nil {
					return err
				}
				worst = max(worst, c.Now()-start)
				return nil
			})
			if err != nil {
				t.Fatalf("%s %v N=%d %s root %d %d B: %v", alg, topo, n, p.op, p.root, p.size, err)
			}
			pin.add(worst, nw.Events())
		}
		return pin
	}

	for _, tc := range []struct {
		alg  Algorithm
		topo simnet.Topology
		n    int
		want suitePin
	}{
		{McastBinary, simnet.Hub, 5, suitePin{8017240, 1721, 0xfa75aee4bdbbaf51}},
		{McastBinary, simnet.Hub, 8, suitePin{13258680, 2884, 0xa77e2e5d4b0d7981}},
		{McastBinary, simnet.Switch, 5, suitePin{8001840, 2092, 0xae95e7d747f2e490}},
		{McastBinary, simnet.Switch, 8, suitePin{10909440, 3989, 0x2f83ef3fc552c629}},
		{McastBinary, simnet.SwitchShared, 5, suitePin{8130720, 1755, 0xfc403707c4ed7284}},
		{McastBinary, simnet.SwitchShared, 8, suitePin{11259560, 3126, 0xec9837a1c5e3cfc8}},
		{McastLinear, simnet.Hub, 5, suitePin{7674820, 1778, 0xc3a98e63ea888d73}},
		{McastLinear, simnet.Hub, 8, suitePin{12680240, 3253, 0xa50bd2ffcdaa24af}},
		{McastLinear, simnet.Switch, 5, suitePin{8116680, 2074, 0xa7bee5315f6fa8c}},
		{McastLinear, simnet.Switch, 8, suitePin{11139120, 3935, 0xdb0a06be74a354df}},
		{McastLinear, simnet.SwitchShared, 5, suitePin{8330700, 1737, 0xff32906e1ab37fb7}},
		{McastLinear, simnet.SwitchShared, 8, suitePin{11411540, 3090, 0xb45e2892dd2d8cb8}},
	} {
		if got := run(tc.alg, tc.topo, tc.n); got != tc.want {
			t.Errorf("%s %v N=%d moved:\n got  {%d, %d, %#x}\n want {%d, %d, %#x}", tc.alg, tc.topo, tc.n,
				got.simNS, got.events, got.hash, tc.want.simNS, tc.want.events, tc.want.hash)
		}
	}
}
