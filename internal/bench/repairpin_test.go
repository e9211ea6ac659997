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
	const (
		procs = 32
		size  = 5000
		seed  = 3
	)
	// Recorded at commit 56ba076, the parent of the change that moved
	// the stream plumbing out of simnet into reliab.Driver.
	want := struct {
		simNS  int64
		events uint64
		stream reliab.Stats
	}{
		simNS:  56_796_351,
		events: 338_989,
		stream: reliab.Stats{
			MsgsStreamed: 3308, Retransmits: 46, ProbesSent: 2050,
			AcksSent: 2067, AcksReceived: 2043, DupFragments: 3,
		},
	}

	algs, err := Set(McastResilient)
	if err != nil {
		t.Fatal(err)
	}
	prof := simnet.DefaultProfile()
	prof.Seed = seed
	prof.LossRate, prof.P2PLossRate = 0.01, 0.01
	skewRng := sim.NewRand(seed ^ 0xD1CE)
	skews := make([]sim.Duration, procs)
	for i := range skews {
		skews[i] = skewRng.Duration(15 * sim.Microsecond)
	}
	var worst int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(procs, simnet.Switch, prof, algs, func(c *mpi.Comm) error {
		// Allgather then allreduce: gather chunks, reduce halves and
		// scouts all ride the stream, multicast repair rides NACKs.
		for _, op := range []workload.Op{workload.OpAllgather, workload.OpAllreduce} {
			call := workload.Make(c, op, size, 0)
			if err := call(); err != nil {
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
	got := nw.Stats.Stream.Snapshot()
	if got.ProbesSent == 0 || got.Retransmits == 0 || got.AcksSent == 0 {
		t.Fatalf("the pinned point no longer walks the repair path: %+v", got)
	}
	if worst != want.simNS || nw.Events() != want.events || got != want.stream {
		t.Errorf("repair path moved:\n got  simNS=%d events=%d stream=%+v\n want simNS=%d events=%d stream=%+v",
			worst, nw.Events(), got, want.simNS, want.events, want.stream)
	}
}
