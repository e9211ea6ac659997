package bench

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// traceSweepConfigs is the perturbation-check grid: the seven trajectory
// combos plus a flat broadcast, covering the flat, chunked and two-level
// code paths on the shared-uplink fabric.
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
		{OpBcast, McastBinary},
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

// ledgerPhases are the round phases the benchmark's phase-share ledger
// reads (core.phase_share.*): a renamed span zeroes its row.
var ledgerPhases = []string{"scout-gather", "data-mcast", "release", "round-gather", "round-data"}

// TestRoundSpansKeepLedgerNames holds the span names of the round engine
// on a traced world (eight ranks on the shared-uplink switch, 2,000 B;
// the scatter on 64, where its flat set still runs the sliced round
// rather than package baseline's point-to-point scatter): a
// round carries the paper's names — the scout gather, then the data
// multicast or, for a control round, the release — and the repaired
// burst the round names. Together, mcast-binary's seven operations (its
// allgather and alltoall one burst, on the hub as on a switch) and
// mcast-resilient's allgather and alltoall (the repaired burst) emit
// every name the ledger reads, so none of its rows can read zero.
func TestRoundSpansKeepLedgerNames(t *testing.T) {
	spans := func(alg Algorithm, op Op, hub bool) map[string]bool {
		t.Helper()
		var rec *trace.Recorder
		var err error
		if hub {
			prof := simnet.DefaultProfile()
			prof.Seed = 1
			prof.Trace = trace.NewRecorder()
			rec = prof.Trace
			_, _, err = coldRun(8, simnet.Hub, prof, alg, op, 2000)
		} else {
			procs := 8
			if op == OpScatter {
				procs = 64
			}
			rec, err = traceOne(op, alg, procs, 2000, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, e := range rec.Events() {
			if e.Kind == trace.SpanBegin {
				names[e.Name] = true
			}
		}
		return names
	}
	seen := make(map[string]bool)
	for _, tc := range []struct {
		alg  Algorithm
		op   Op
		hub  bool
		want []string
	}{
		{McastBinary, OpBcast, false, []string{"scout-gather", "data-mcast"}},
		{McastResilient, OpBcast, false, []string{"scout-gather", "data-mcast"}},
		{McastBinary, OpScatter, false, []string{"scout-gather", "data-mcast"}},
		{McastBinary, OpBarrier, false, []string{"scout-gather", "release"}},
		{McastResilient, OpBarrier, false, []string{"scout-gather", "release"}},
		// The burst's handshake is the multicast barrier.
		{McastBinary, OpAllgather, false, []string{"scout-gather", "release", "chunk-mcast", "chunk-consume"}},
		{McastBinary, OpAlltoall, false, []string{"scout-gather", "release", "chunk-mcast", "chunk-consume"}},
		{McastBinary, OpAllgather, true, []string{"scout-gather", "release", "chunk-mcast", "chunk-consume"}},
		{McastBinary, OpAlltoall, true, []string{"scout-gather", "release", "chunk-mcast", "chunk-consume"}},
		{McastResilient, OpAllgather, false, []string{"round-gather", "round-data"}},
		{McastResilient, OpAlltoall, false, []string{"round-gather", "round-data"}},
		// Off segments the allreduce is a reduce and a broadcast round; on
		// even segments past one frame it is the chunked schedule, whose
		// allgather needs no scouts (core's plan).
		{McastBinary, OpAllreduce, true, []string{"scout-gather", "data-mcast"}},
		{McastBinary, OpAllreduce, false, []string{"reduce-scatter", "chunk-mcast"}},
		{McastBinary, OpGather, false, nil},
	} {
		got := spans(tc.alg, tc.op, tc.hub)
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("%s %s spans %v, no %q", tc.alg, tc.op, slices.Sorted(maps.Keys(got)), name)
			}
		}
		if slices.Contains(tc.want, "reduce-scatter") && got["scout-gather"] {
			t.Errorf("%s %s runs the chunked schedule but spans %q", tc.alg, tc.op, "scout-gather")
		}
		isRound := func(name string) bool { return strings.HasPrefix(name, "round-") }
		if !slices.ContainsFunc(tc.want, isRound) {
			for name := range got {
				if isRound(name) {
					t.Errorf("%s %s runs no repaired burst but spans %q", tc.alg, tc.op, name)
				}
			}
		}
		for name := range got {
			seen[name] = true
		}
	}
	for _, name := range ledgerPhases {
		if !seen[name] {
			t.Errorf("no operation spans %q: its core.phase_share row would read zero", name)
		}
	}
}
