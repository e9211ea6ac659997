package repro

// Smoke tests for the figure harness: one tiny scenario per protocol and
// per collective, so a regression in the measurement pipeline fails
// `go test` instead of only surfacing under -bench.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestScenarioSmoke runs a minimal bench.Run for every registered
// protocol except the deliberately lossy Unsafe ablation, so a newly
// registered algorithm cannot dodge the measurement pipeline.
func TestScenarioSmoke(t *testing.T) {
	var algs []bench.Algorithm
	for _, a := range bench.Algorithms() {
		if a != bench.Unsafe {
			algs = append(algs, a)
		}
	}
	for _, alg := range algs {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			sc := bench.DefaultScenario()
			sc.Algorithm = alg
			sc.MsgSize = 600
			sc.Reps = 2
			r, err := bench.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Samples) != 2 || r.Median() <= 0 {
				t.Fatalf("implausible result: %+v", r)
			}
		})
	}
}

// TestCollectiveScenarioSmoke covers every registered collective op with
// the multicast suites and the baseline. Iterating workload.Ops() means
// a newly registered collective fails this smoke until it dispatches
// cleanly — a registered op that panics or errors fails the bench smoke.
func TestCollectiveScenarioSmoke(t *testing.T) {
	for _, alg := range []bench.Algorithm{
		bench.MPICH, bench.McastBinary, bench.McastPipelined,
		bench.McastResilient, bench.McastChunked,
	} {
		for _, op := range workload.Ops() {
			alg, op := alg, op
			t.Run(fmt.Sprintf("%s/%s", alg, op), func(t *testing.T) {
				sc := bench.DefaultScenario()
				sc.Algorithm = alg
				sc.Op = op
				sc.Procs = 5
				sc.Topology = simnet.Hub
				sc.MsgSize = 512
				sc.Reps = 2
				r, err := bench.Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				if r.Median() <= 0 {
					t.Fatalf("implausible latency %v", r.Median())
				}
			})
		}
	}
}

// TestUnknownOpFailsLoudly: a typo'd scenario op must be an error from
// the measurement pipeline, not a silently measured broadcast.
func TestUnknownOpFailsLoudly(t *testing.T) {
	sc := bench.DefaultScenario()
	sc.Op = "bcst"
	sc.Reps = 2
	if _, err := bench.Run(sc); err == nil {
		t.Fatal("unknown op measured something instead of failing")
	}
}

// TestExtensionFigureRenders builds the extension comparison figures
// (allgather, allreduce, alltoall, pipelined-vs-sequential) at a micro
// grid and checks they render and export. The N-sweep grid is capped at
// 32 here — the a5/a6 self-check tests below and the CI bench-smoke job
// cover the N=256 points.
func TestExtensionFigureRenders(t *testing.T) {
	want := map[string][]string{
		"14":  {"mcast-binary", "mpich"},
		"14n": {"mcast-binary (32 proc)", "mpich (32 proc)"},
		"14h": {"mcast-2level (32 proc)", "mcast-pipelined (32 proc)"},
		"15":  {"mcast-binary", "mpich"},
		"15n": {"mcast-binary (32 proc)", "mpich (32 proc)"},
		"15h": {"mcast-2level (32 proc)", "mcast-binary (32 proc)"},
		"16":  {"mcast-binary", "mcast-pipelined", "mpich"},
		"17":  {"mcast-binary", "mcast-pipelined"},
		"18":  {"pairwise", "sliced"},
		"19":  {"mcast-binary", "mcast-chunked", "mpich"},
	}
	for _, id := range []string{"14", "14n", "14h", "15", "15n", "15h", "16", "17", "18", "19"} {
		d, ok := bench.Lookup(id)
		if !ok {
			t.Fatalf("figure %s not registered", id)
		}
		r, err := d.Build(bench.Options{Reps: 1, SizeStep: 2500, MaxSize: 5000, Seed: 1, MaxN: 32})
		if err != nil {
			t.Fatal(err)
		}
		out := r.Render()
		for _, series := range want[id] {
			if !strings.Contains(out, series) {
				t.Fatalf("figure %s render missing series %q:\n%s", id, series, out)
			}
		}
		if lines := strings.Split(r.CSV(), "\n"); len(lines) < 5 {
			t.Fatalf("figure %s csv too short", id)
		}
	}
}

// TestFrameTableSelfChecks builds the A3 frame table (the artifact the
// CI bench-smoke job uploads) and asserts every measured count matches
// its formula — a frame-count regression anywhere in the suite turns a
// row's match column into MISMATCH and fails this test.
func TestFrameTableSelfChecks(t *testing.T) {
	d, ok := bench.Lookup("a3")
	if !ok {
		t.Fatal("experiment a3 not registered")
	}
	r, err := d.Build(bench.Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if strings.Contains(out, "MISMATCH") {
		t.Fatalf("frame table has mismatched rows:\n%s", out)
	}
}

// TestQueueTableSelfChecks builds the A5 shared-uplink queue-occupancy
// table (the second artifact the CI bench-smoke job uploads) and asserts
// the silent-drop check column is clean: a frame tail-dropped anywhere
// in the N-sweep — instead of being absorbed by flow-control
// backpressure — turns a row into SILENT-DROP and fails this test.
func TestQueueTableSelfChecks(t *testing.T) {
	d, ok := bench.Lookup("a5")
	if !ok {
		t.Fatal("experiment a5 not registered")
	}
	r, err := d.Build(bench.Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if strings.Contains(out, "SILENT-DROP") {
		t.Fatalf("queue table reports silent egress drops:\n%s", out)
	}
	if !strings.Contains(out, "gather") || !strings.Contains(out, "32") {
		t.Fatalf("queue table misses the N-sweep rows:\n%s", out)
	}
}

// TestScoutEconomyTableSelfChecks builds the A6 two-level scout-economy
// table (the third artifact the CI bench-smoke job uploads) and asserts
// both check markers are clean: a two-level allgather exceeding the
// N + S² + S scout bound renders SCOUT-EXCESS, and a tail-dropped frame
// renders SILENT-DROP — either fails this test and the CI gate.
func TestScoutEconomyTableSelfChecks(t *testing.T) {
	d, ok := bench.Lookup("a6")
	if !ok {
		t.Fatal("experiment a6 not registered")
	}
	r, err := d.Build(bench.Options{Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if strings.Contains(out, "SCOUT-EXCESS") {
		t.Fatalf("scout economy table reports a breached bound:\n%s", out)
	}
	if strings.Contains(out, "SILENT-DROP") {
		t.Fatalf("scout economy table reports silent egress drops:\n%s", out)
	}
	if !strings.Contains(out, "32") {
		t.Fatalf("scout economy table misses the N=32 row:\n%s", out)
	}
}

// TestAllgatherSetsAgreeAtN32 pins the fig 14h point at N=32 with
// 5000 B chunks on the shared-uplink switch: mcast-binary,
// mcast-pipelined and mcast-2level run the same lossless allgather — one
// burst, whose handshake is N-1 scouts and one release — so they take
// the same simulated nanoseconds and put the same frames of every class
// on the wire.
func TestAllgatherSetsAgreeAtN32(t *testing.T) {
	const n, chunk = 32, 5000
	prof := simnet.DefaultProfile()
	prof.UplinkFanout = 4
	classes := []transport.Class{transport.ClassScout, transport.ClassData, transport.ClassControl, transport.ClassNack}
	type run struct {
		worst  int64
		frames [4]int64
	}
	measure := func(alg bench.Algorithm) (r run) {
		algs, err := bench.Set(alg)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
			start := c.Now()
			if err := c.Allgather(make([]byte, chunk), make([]byte, n*chunk)); err != nil {
				return err
			}
			r.worst = max(r.worst, c.Now()-start) // ranks run one at a time under the engine
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, class := range classes {
			r.frames[i] = nw.Wire.Frames(class)
		}
		return r
	}
	want := measure(bench.McastTwoLevel)
	if want.frames[0] != n-1 || want.frames[2] != 1 {
		t.Errorf("%s allgather sent %d scouts and %d releases, want N-1 = %d and 1", bench.McastTwoLevel, want.frames[0], want.frames[2], n-1)
	}
	for _, alg := range []bench.Algorithm{bench.McastBinary, bench.McastPipelined} {
		if got := measure(alg); got != want {
			t.Errorf("%s allgather took %d ns with frames %v (scout, data, control, nack); %s took %d ns with %v",
				alg, got.worst, got.frames, bench.McastTwoLevel, want.worst, want.frames)
		}
	}
}
