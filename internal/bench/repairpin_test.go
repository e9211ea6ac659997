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
	// probes, 2067 acks sent, 2043 received, 3 dups}. Re-recorded again
	// when the warm-up allgather became one repaired burst, N-1 acks in
	// place of a round per rank with N-1 each: simNS 16,427,118, 86,164
	// events, stream {2348 msgs, 26 retransmits, 2490 probes, 2265
	// confirms, 2470 acks sent, 2449 received} before. The measured
	// allreduce ran the same code; it now starts on a stream that
	// carried 1,933 fewer messages in the warm-up. Re-recorded when repair
	// began to act on evidence of loss (a release resent to the ranks
	// whose acks are overdue, the repaired burst asking at its own pace, a
	// completed message received before it is asked for): simNS 6,977,613,
	// 29,182 events, stream {415 msgs, 4 retransmits, 466 probes, 381
	// confirms, 461 acks sent, 460 received} before.
	want := pinned{
		simNS:  6_901_901,
		events: 27_993,
		stream: reliab.Stats{
			MsgsStreamed: 412, Retransmits: 5, ProbesSent: 387, ConfirmsSent: 375,
			AcksSent: 385, AcksReceived: 381,
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
// 15 µs of per-rank skew, the measured op) at size bytes on procs ranks
// at 5 % multicast and 2 % point-to-point loss. It also returns the
// frames the simulator dropped over the row.
func runSuitePin(t *testing.T, topo simnet.Topology, alg Algorithm, op workload.Op, procs, size int) (suitePin, int64) {
	t.Helper()
	algs, err := Set(alg)
	if err != nil {
		t.Fatal(err)
	}
	prof := simnet.DefaultProfile()
	prof.LossRate, prof.P2PLossRate = 0.05, 0.02
	sc := Scenario{
		Procs: procs, Topology: topo, Op: op, MsgSize: size,
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
// shared-uplink switch (where its allreduce runs two levels, and at
// 300 B its scatter the repaired segment round and its gather the two
// nested point-to-point gathers, which the stream alone repairs), under
// combined multicast and point-to-point loss. A refactor of the round
// engine, of the release-and-collect loop or of the multicast
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
	//
	// The scatter and alltoall rows were re-recorded when a receiver of a
	// sliced or segment round began to budget its silence by every byte
	// the round sends, not by one payload. They read, in table order,
	// {242040050, 47766}, {1347688496, 421284} (both sets on the switch),
	// {245908511, 44336}, {1317895951, 438674}, {149776115, 50463} and
	// {1867595534, 348911}: the switch scatter got 30 % slower and the
	// shared-uplink flat one 13 % (an empty request for a lost round now
	// waits for the whole round's wire time), the two-level alltoall got
	// 6 % faster, and the other three moved by 3 % or less; every row
	// kept below before.
	//
	// The flat allgather and alltoall rows — both sets on the switch,
	// where the two-level set runs the flat operations, and the flat set
	// on the shared-uplink switch — were re-recorded when the repaired
	// set's N rounds with N-1 acks each became one repaired burst. They
	// read, in table order, {670638763, 374366, 0x583c759a60ca670} and
	// {1310427869, 406220, 0x7d4e8501543223f4} on the switch (both sets),
	// {644527392, 324759, 0x6c13cf7ed7b41c80} and {1321684185, 428793,
	// 0x99fc6abcea81e79f} on the shared-uplink switch: 27 %, 63 %, 22 %
	// and 43 % faster now, on 53 % to 65 % fewer engine events.
	//
	// The two-level set's allgather and alltoall rows on the
	// shared-uplink switch were re-recorded when its repaired allgather
	// and alltoall became the flat repaired burst, in place of a
	// segment-local combine and S sequential leader rounds. They read
	// {372219621, 209420, 0x10019cf4ed07bcea} and {1752406825, 333627,
	// 0x6803471bb385fa53}: the allgather is 46 % slower now, still below
	// before, and the alltoall 51 % faster.
	//
	// Every row was re-recorded when repair began to act on evidence of
	// loss: once a rank has seen the network lose frames, a release's
	// sender resends it to the ranks whose acks are overdue, the repaired
	// burst asks for a partial slot at the exchange's own pace, and a
	// receiver that holds a completed message receives it before asking.
	// The rows read, in table order — the switch rows once, the same for
	// both sets — {136496379, 51716, 0x70e75200178fccd7}, {182456654,
	// 44994, 0x6f7b99078bdffdd5}, {489790497, 163070, 0x2ed899d759115d01},
	// {85435704, 54290, 0x86fd77c79684f23c}, {313946842, 45514,
	// 0x821fc9e0cd79ea59}, {183497970, 49134, 0x129fbcc8f01a0e36} and
	// {487218550, 189181, 0x8a2dda6b83dd928a} on the switch; {145761759,
	// 36806, 0xda2c666f7eb98ea4}, {180352115, 35481, 0xa1482a17b3aebd37},
	// {502607187, 112230, 0x994af81e65d1196a}, {101663927, 43018,
	// 0x8db47eb39a6e3199}, {277104124, 39634, 0xb0ead05595d07a0b},
	// {189683607, 41538, 0x964330fbe24f5548} and {753411608, 199181,
	// 0x9e8d0b1c1a30e7de} for mcast-resilient on the shared-uplink switch;
	// {72123295, 37646, 0x4f603c2ddb4354b8}, {131384743, 32585,
	// 0x4151ca0e2cf5cb41}, {544163381, 113681, 0x80eb86e0c6cc860b},
	// {75217395, 39209, 0x115813a5330adaa}, {149230479, 40688,
	// 0xf6e01786f9208942}, {227227167, 38356, 0x9ee0c96a7d096e60} and
	// {863015518, 200047, 0x799d0afb62386d04} for mcast-2level-resilient
	// there. The allgather and alltoall rows fell by 38 % to 71 %, the
	// barrier rows by 26 % to 45 %. One row rose: mcast-resilient's scatter
	// on the shared-uplink switch, by 37 %, all of it at seed 9 (55.3 ms
	// before, 159.2 now; the other seeds moved by under 0.3 ms). There the
	// separating barrier lost an ack, not its release, and rank 0 resent
	// the release six times, doubling, until the stream retransmitted the
	// ack; those frames moved every listener's loss draws, and in the
	// measured scatter a scout, sent before its rank had seen the
	// evidence and so unconfirmed, was lost, and its stream took 150 ms of
	// probe timeouts to resend it. The two-level gather row kept its
	// nanoseconds on 214 more events.
	//
	// The two-level set's rows on the shared-uplink switch were
	// re-recorded when its bcast and barrier became the flat set's and
	// its scatter and gather began to run two-level only inside
	// their regime (core's plan), which 3,000 B at N=16 is not. Every row moved,
	// because each runs the separating barrier. They read, in table
	// order, {70154689, 37737, 0x1d63aa314d7cb850}, {96716457, 32810,
	// 0xd0f143c2a5265c96}, {168941412, 99328, 0x8312e826e1b898e4},
	// {48790034, 39045, 0xfaeb71f3ff1bde42}, {125845540, 40449,
	// 0x6cbb5daec214179c}, {227227167, 38570, 0xbc984854fd3f9986} and
	// {494188741, 200874, 0x1515eef5d850fd3b}. All but the allreduce now
	// read what mcast-resilient's rows read: the bcast 56 % slower, the
	// scatter three times slower (seed 9's lost scout, above), the
	// barrier 2 % slower, the allgather, gather and alltoall 6 %, 19 %
	// and 5 % faster; the allreduce, which keeps its two-level schedule
	// behind the flat barrier now, 33 % slower. The 300 B rows below
	// keep the two-level scatter's and gather's repair paths pinned.
	//
	// The scatter and gather rows of both sets on both fabrics were
	// re-recorded when the flat sets began to run package baseline's
	// point-to-point scatter and gather outside their regimes
	// (core's plan), which N=16 is not in: the
	// stream repairs point-to-point traffic itself, so there is no
	// multicast left to repair and no ack to wait for. They read, in
	// table order, {274546959, 45362, 0x7843203f89ca745b} and {182435387,
	// 49194, 0xc549c508c0c8f100} on the switch (both sets), and
	// {381021882, 42264, 0x4ae72700d36de183} and {184750613, 41481,
	// 0xf2e1099e7c8070c4} on the shared-uplink switch (both sets): the
	// scatters 38 % and 54 % faster, the gathers 43 % and 45 %; seed 9's
	// 159 ms shared-uplink scatter reads 7.3 ms.
	for _, tc := range []struct {
		topo   simnet.Topology
		alg    Algorithm
		op     workload.Op
		want   suitePin
		before int64
	}{
		{simnet.Switch, McastResilient, workload.OpBcast, suitePin{91436470, 47976, 0x6f4b9ee6d4899db6}, 487704224},
		{simnet.Switch, McastResilient, workload.OpBarrier, suitePin{99882489, 44995, 0x30f77ba5aaf1c92e}, 285290606},
		{simnet.Switch, McastResilient, workload.OpAllgather, suitePin{142179459, 148699, 0x3e14b9f86d040aa0}, 3711640412},
		{simnet.Switch, McastResilient, workload.OpAllreduce, suitePin{76808387, 54315, 0x5ab483b078d43b00}, 414438739},
		{simnet.Switch, McastResilient, workload.OpScatter, suitePin{170747703, 37668, 0x810a5ed7f758971c}, 701563311},
		{simnet.Switch, McastResilient, workload.OpGather, suitePin{104235164, 35548, 0xa5bed398e9b88893}, 450004527},
		{simnet.Switch, McastResilient, workload.OpAlltoall, suitePin{237339295, 181890, 0x34c1b8cc96bc519a}, 5394120020},
		// No segments on the plain switch: the two-level set runs its
		// flat fall-backs, which are the flat resilient set's rows.
		{simnet.Switch, McastTwoLevelResilient, workload.OpBcast, suitePin{91436470, 47976, 0x6f4b9ee6d4899db6}, 487704224},
		{simnet.Switch, McastTwoLevelResilient, workload.OpBarrier, suitePin{99882489, 44995, 0x30f77ba5aaf1c92e}, 285290606},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAllgather, suitePin{142179459, 148699, 0x3e14b9f86d040aa0}, 3711640412},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAllreduce, suitePin{76808387, 54315, 0x5ab483b078d43b00}, 414438739},
		{simnet.Switch, McastTwoLevelResilient, workload.OpScatter, suitePin{170747703, 37668, 0x810a5ed7f758971c}, 701563311},
		{simnet.Switch, McastTwoLevelResilient, workload.OpGather, suitePin{104235164, 35548, 0xa5bed398e9b88893}, 450004527},
		{simnet.Switch, McastTwoLevelResilient, workload.OpAlltoall, suitePin{237339295, 181890, 0x34c1b8cc96bc519a}, 5394120020},
		{simnet.SwitchShared, McastResilient, workload.OpBcast, suitePin{109651575, 34609, 0xd11d4877049b8ca4}, 366563633},
		{simnet.SwitchShared, McastResilient, workload.OpBarrier, suitePin{98760677, 35494, 0x7423e471b3ffe001}, 236280906},
		{simnet.SwitchShared, McastResilient, workload.OpAllgather, suitePin{159447119, 99264, 0xf9f5d417de4055af}, 3709979293},
		{simnet.SwitchShared, McastResilient, workload.OpAllreduce, suitePin{70736957, 42712, 0x1835531a04d34cf7}, 418089447},
		{simnet.SwitchShared, McastResilient, workload.OpScatter, suitePin{174159963, 31811, 0x7f7ed7cb73529449}, 599336087},
		{simnet.SwitchShared, McastResilient, workload.OpGather, suitePin{102053904, 27487, 0xfb8183fe12c8b94e}, 498436767},
		{simnet.SwitchShared, McastResilient, workload.OpAlltoall, suitePin{467850771, 200537, 0xdda5f07cfeb1bfd6}, 4598049932},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpBcast, suitePin{109651575, 34609, 0xd11d4877049b8ca4}, 383611522},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpBarrier, suitePin{98760677, 35494, 0x7423e471b3ffe001}, 283117748},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAllgather, suitePin{159447119, 99264, 0xf9f5d417de4055af}, 1417073940},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAllreduce, suitePin{64979758, 38276, 0xde3aa8cbe80cecdd}, 510749413},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpScatter, suitePin{174159963, 31811, 0x7f7ed7cb73529449}, 846596588},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpGather, suitePin{102053904, 27487, 0xfb8183fe12c8b94e}, 372988649},
		{simnet.SwitchShared, McastTwoLevelResilient, workload.OpAlltoall, suitePin{467850771, 200537, 0xdda5f07cfeb1bfd6}, 17531965094},
	} {
		got, losses := runSuitePin(t, tc.topo, tc.alg, tc.op, 16, 3000)
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
	// At 3,000 B the two-level set runs the flat scatter and gather
	// (core's plan); at 300 B, from 32 ranks for the scatter and 16 for
	// the gather, it runs its own: the segment round, repaired, and the
	// member → leader → root point-to-point gather. On 16 ranks, where the
	// regime began while the flat set sliced every scatter and gated every
	// gather, these rows read {210783417, 35494, 0xeeec3d5360829908} and
	// {116696704, 33692, 0x599e3fa7405386c0}. The gather row was
	// re-recorded when the two-level gather dropped its member and leader
	// scouts and its segment and root releases: it read {187872526,
	// 254744, 0x6fc72be87f5d0bc2} while the segment-local combine waited
	// for a repaired segment release, and is 13 % faster now on 37 % fewer
	// engine events.
	for _, tc := range []struct {
		op    workload.Op
		procs int
		want  suitePin
	}{
		{workload.OpScatter, 32, suitePin{183645253, 89723, 0x6f2bec0f3c0bc071}},
		{workload.OpGather, 64, suitePin{164300739, 160849, 0xc9b2fd3d723ad307}},
	} {
		got, losses := runSuitePin(t, simnet.SwitchShared, McastTwoLevelResilient, tc.op, tc.procs, 300)
		if losses == 0 {
			t.Errorf("%s at 300 B: no frame was dropped; the row no longer walks a repair path", tc.op)
		}
		if got != tc.want {
			t.Errorf("%v/%s/%s at 300 B moved:\n got  {%d, %d, %#x}\n want {%d, %d, %#x}", simnet.SwitchShared, McastTwoLevelResilient, tc.op,
				got.simNS, got.events, got.hash, tc.want.simNS, tc.want.events, tc.want.hash)
		}
	}
}

// TestChunkedFallbackDeterminismPin holds the chunked allreduce's
// one-level reduce-scatter where the two-level one does not apply: on
// uneven segments (N=6 = 4+2 and N=7 = 4+3 on the shared-uplink switch,
// fanout 4) and on the flat switch, one cold operation per point must
// simulate the recorded nanoseconds and engine events. It also holds the
// two-level reduce-scatter whose lane step keeps its S walks because the
// segment count S is not a power of two (N=12, S=3 and N=24, S=6), with
// the allgather of the segment leaders or of every rank: those rows were
// recorded before the lane step learned recursive halving. The values were
// re-recorded when the gather of the reduced slices there stopped being
// a burst and became the scout-free gather the even segments run, gated
// by the reduce-scatter: from {1,087,480, 678}, {1,750,780, 703},
// {33,027,480, 2,024}, {1,255,076, 855}, {1,890,892, 888},
// {35,009,924, 2,427}, {1,677,680, 1,219} and {12,564,568, 3,345}, in
// table order — every point faster. The N=12 and N=24 rows at 100 and
// 2,000 B were re-recorded when the segment step came to halve below
// 20,000 B (F=4: two messages per rank in place of three): they read
// {930,932, 1,448}, {1,574,520, 1,487}, {1,305,360, 4,110} and
// {2,002,636, 4,178}, and moved 1.0 % to 6.3 % faster.
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
		{simnet.SwitchShared, 12, 100, 871_856, 1359},
		{simnet.SwitchShared, 12, 2000, 1_558_852, 1389},
		{simnet.SwitchShared, 12, 65536, 30_936_664, 3939},
		{simnet.SwitchShared, 24, 100, 1_247_748, 3942},
		{simnet.SwitchShared, 24, 2000, 1_981_360, 3984},
		{simnet.SwitchShared, 24, 65536, 32_746_292, 9478},
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
// 65,536 B rows are inside the flat burst's regime (core's plan)
// and hold the flat burst's ring-ordered slices, recorded when it came
// in (the two-level blocks read {6,313,180, 526}, {204,440,444, 8,790},
// {7,891,180, 705} and {245,505,420, 12,208}); its 100 B rows hold the
// two-level burst at both segment shapes. The chunked rows were
// re-recorded when the lane step of its reduce-scatter became a
// recursive halving (S=4 segments, two messages per rank instead of
// three): they read {1,063,760, 2,140} and {31,796,020, 5,509}. The
// 100 B row is 4.6 % faster; the 65,536 B row is 0.04 % slower, where
// the halving's two larger messages per rank queue behind each other on
// the uplinks longer than three smaller walk messages did. The 100 B row
// was re-recorded again when the segment step came to halve below
// 20,000 B: it read {1,014,384, 2,000}, 8.3 % slower.
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
		{McastChunked, OpAllreduce, 16, 100, 930_368, 1896},
		{McastChunked, OpAllreduce, 16, 65536, 31_807_460, 5392},
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
// leader tree on uneven segments (N=6 = 4+2, N=7 = 4+3, N=18 = 4·4+2)
// and on even ones (N=16) on the shared-uplink switch, fanout 4,
// including the empty reduction whose fan-out it gates at 0 B; and the
// MPICH reduce to a non-zero root (rank 3 of 7 on the switch), whose
// tree is rotated. One cold operation per point must simulate the
// nanoseconds and engine events recorded before every binomial
// reduction ran one walk. On even segments past one frame the lossless
// sets' allreduce became the chunked one (core's plan), so the N=16 rows
// at 2,000 and 65,536 B ({2,170,460, 701} and {47,377,740, 4,121}) gave
// way to N=16 at 1,424 B, the last size before it, and N=18 at
// 65,536 B, recorded when they came in.
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
		{16, 1424, 1_675_276, 633},
		{18, 65536, 47_397_420, 4794},
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
// lossless flat sets — the paper's broadcast at roots 0 and 3 and its
// barrier — and their scatter at root 3 where no other pin looks:
// the linear set, a non-zero root and a rank count that
// is not a power of two, on the hub, the switch and the shared-uplink
// switch (fanout 4). Each row folds one cold operation per grid point
// (bcast at roots 0 and 3 and scatter at root 3, each at 0, 1,000 and
// 5,000 B, then the barrier) at seed 1: the longest rank's simulated
// nanoseconds and the world's engine events, summed, and an FNV-1a fold
// of every point's pair in grid order. A round engine that delays or
// reorders the calls of a single round moves a row.
//
// Every row was re-recorded when the flat sets' scatter became package
// baseline's point to point outside the sliced round's regime (core's
// plan), which no row's N is in (the sliced round runs on shared uplinks from 64 ranks; the
// BENCH_sim.json scatter rows at N=64 and 256 hold it). In table order
// the rows read {8017240, 1721, 0xfa75aee4bdbbaf51}, {13258680, 2884,
// 0xa77e2e5d4b0d7981}, {8001840, 2092, 0xae95e7d747f2e490}, {10909440,
// 3989, 0x2f83ef3fc552c629}, {8130720, 1755, 0xfc403707c4ed7284},
// {11259560, 3126, 0xec9837a1c5e3cfc8}, {7674820, 1778,
// 0xc3a98e63ea888d73}, {12680240, 3253, 0xa50bd2ffcdaa24af}, {8116680,
// 2074, 0xa7bee5315f6fa8c}, {11139120, 3935, 0xdb0a06be74a354df},
// {8330700, 1737, 0xff32906e1ab37fb7} and {11411540, 3090,
// 0xb45e2892dd2d8cb8}: every row 7 % to 13 % faster on fewer events.
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
		{McastBinary, simnet.Hub, 5, suitePin{7228120, 1676, 0x66753d1d4e134f48}},
		{McastBinary, simnet.Hub, 8, suitePin{11495040, 2761, 0xeed6da723568b8fe}},
		{McastBinary, simnet.Switch, 5, suitePin{7342400, 1947, 0xd866795db5de1c9b}},
		{McastBinary, simnet.Switch, 8, suitePin{9914360, 3730, 0x65708df40e2d60f4}},
		{McastBinary, simnet.SwitchShared, 5, suitePin{7548200, 1622, 0x83e9bb2b8070e520}},
		{McastBinary, simnet.SwitchShared, 8, suitePin{10350240, 2844, 0xdb7962acff871a31}},
		{McastLinear, simnet.Hub, 5, suitePin{7057120, 1727, 0x5ff6f96022dd77a0}},
		{McastLinear, simnet.Hub, 8, suitePin{11159600, 3007, 0x312791b311ec356}},
		{McastLinear, simnet.Switch, 5, suitePin{7418960, 1935, 0xcccb2bc9e7e912cb}},
		{McastLinear, simnet.Switch, 8, suitePin{10067480, 3694, 0xefc4b02069b9f998}},
		{McastLinear, simnet.SwitchShared, 5, suitePin{7672400, 1610, 0x1c5a3e0add5e33e9}},
		{McastLinear, simnet.SwitchShared, 8, suitePin{10473180, 2844, 0x5d2ec3a141c4941c}},
	} {
		if got := run(tc.alg, tc.topo, tc.n); got != tc.want {
			t.Errorf("%s %v N=%d moved:\n got  {%d, %d, %#x}\n want {%d, %d, %#x}", tc.alg, tc.topo, tc.n,
				got.simNS, got.events, got.hash, tc.want.simNS, tc.want.events, tc.want.hash)
		}
	}
}
