package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// traceSweepConfigs is the perturbation-check grid: the seven trajectory
// combos plus a pipelined broadcast, covering the flat, pipelined,
// chunked and two-level code paths on the shared-uplink fabric.
func traceSweepConfigs() []struct {
	op  Op
	alg Algorithm
} {
	return []struct {
		op  Op
		alg Algorithm
	}{
		{OpAllgather, McastBinary},
		{OpAllgather, McastTwoLevel},
		{OpAllreduce, McastBinary},
		{OpAllreduce, McastTwoLevel},
		{OpAllreduce, McastChunked},
		{OpScatter, McastTwoLevel},
		{OpAlltoall, McastTwoLevel},
		{OpBcast, McastPipelined},
	}
}

// TestTraceDoesNotPerturbSimTime is the flight recorder's core contract:
// attaching a recorder reads the virtual clock but never advances it, so
// every simulated timestamp is byte-identical with and without tracing.
// Each config runs twice — Profile.Trace nil vs a live recorder — and
// the per-repetition sample vectors must match exactly (float64 equality,
// not a tolerance: the samples derive from int64 sim-ns).
func TestTraceDoesNotPerturbSimTime(t *testing.T) {
	for _, cfg := range traceSweepConfigs() {
		cfg := cfg
		t.Run(string(cfg.op)+"/"+string(cfg.alg), func(t *testing.T) {
			t.Parallel()
			run := func(rec *trace.Recorder) []float64 {
				prof := *sharedUplinkProfile()
				prof.Trace = rec
				sc := Scenario{
					Procs: 8, Topology: simnet.SwitchShared,
					Algorithm: cfg.alg, Op: cfg.op,
					MsgSize: 2000, Reps: 3, Warmups: 1, Seed: 7,
					Profile: &prof,
				}
				r, err := Run(sc)
				if err != nil {
					t.Fatalf("%s/%s: %v", cfg.op, cfg.alg, err)
				}
				return r.Samples
			}
			bare := run(nil)
			rec := trace.NewRecorder()
			traced := run(rec)
			if len(bare) != len(traced) {
				t.Fatalf("sample counts differ: %d vs %d", len(bare), len(traced))
			}
			for i := range bare {
				if bare[i] != traced[i] {
					t.Errorf("rep %d: %v µs untraced vs %v µs traced", i, bare[i], traced[i])
				}
			}
			if rec.Len() == 0 {
				t.Error("recorder attached but captured no events")
			}
		})
	}
}

// TestTraceDemoExportsAndNamesHandshake locks the demo fixture end to
// end: the merged Chrome export validates (well-formed, per-track
// monotonic, balanced spans), and the two-level allgather's critical
// path names both phases of the burst's handshake — the barrier's
// scout gather and its release — before the data exchange.
func TestTraceDemoExportsAndNamesHandshake(t *testing.T) {
	entries, err := TraceDemo(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("demo entries = %d, want 3", len(entries))
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, TraceRuns(entries)...); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var twoLevel *trace.Summary
	for _, e := range entries {
		if strings.Contains(e.Name, string(McastTwoLevel)) {
			twoLevel = e.Summary
		}
		if e.Summary == nil || len(e.Summary.Phases) == 0 {
			t.Errorf("%s: empty summary", e.Name)
		}
	}
	if twoLevel == nil {
		t.Fatal("no two-level entry in demo set")
	}
	for _, phase := range []string{"scout-gather", "release"} {
		if !slices.ContainsFunc(twoLevel.Critical, func(step trace.PathStep) bool { return step.Name == phase }) {
			t.Errorf("two-level critical path %v does not name %s", twoLevel.Critical, phase)
		}
	}
}
