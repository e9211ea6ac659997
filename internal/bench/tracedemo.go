package bench

import (
	"fmt"

	"repro/internal/simnet"
	"repro/internal/trace"
)

// TraceDemoEntry is one recorded demo collective: its recorder (for the
// Chrome export) and the extracted metrics summary.
type TraceDemoEntry struct {
	// Name labels the run in the exported trace ("bcast/mcast-binary").
	Name string
	// Rec holds the raw event log; WriteChromeTrace renders it.
	Rec *trace.Recorder
	// Summary is the phase-latency and critical-path report.
	Summary *trace.Summary
}

// TraceDemoProcs and TraceDemoSize are the demo fixture: the fig-14h
// shared-uplink point (8 ranks on 2 segments, 5000-byte chunks) where
// the burst's handshake and the uplink serialization are both visible
// in the trace.
const (
	TraceDemoProcs = 8
	TraceDemoSize  = 5000
)

// TraceDemo runs the fixed flight-recorder demo set — a flat broadcast,
// a pipelined allgather, and a two-level allgather, all on the
// shared-uplink fabric at the fig-14h point — each with its own recorder
// attached. The three runs export as separate processes of one Chrome
// trace (trace.WriteChromeTrace) and each yields a metrics summary. Both
// allgathers run the same burst; its critical path names the handshake
// ("scout-gather", then "release") before the data exchange.
func TraceDemo(seed uint64) ([]TraceDemoEntry, error) {
	demos := []struct {
		op  Op
		alg Algorithm
	}{
		{OpBcast, McastBinary},
		{OpAllgather, McastPipelined},
		{OpAllgather, McastTwoLevel},
	}
	var out []TraceDemoEntry
	for _, d := range demos {
		rec, err := traceOne(d.op, d.alg, TraceDemoProcs, TraceDemoSize, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, TraceDemoEntry{
			Name:    fmt.Sprintf("%s/%s n=%d size=%d", d.op, d.alg, TraceDemoProcs, TraceDemoSize),
			Rec:     rec,
			Summary: trace.Summarize(rec),
		})
	}
	return out, nil
}

// traceOne runs one collective on the shared-uplink fabric with a fresh
// recorder attached and returns the recorder. Exactly one repetition is
// recorded — a mid-run recorder reset would orphan the span-end events
// of ranks still inside the preceding operation, and the simulated
// fabric needs no warmup for a valid timeline.
func traceOne(op Op, a Algorithm, procs, size int, seed uint64) (*trace.Recorder, error) {
	rec := trace.NewRecorder()
	prof := *sharedUplinkProfile()
	prof.Seed = seed
	prof.Trace = rec
	if _, _, err := coldRun(procs, simnet.SwitchShared, prof, a, op, size); err != nil {
		return nil, err
	}
	return rec, nil
}

// TraceRuns adapts the demo entries to the Chrome exporter.
func TraceRuns(entries []TraceDemoEntry) []trace.Run {
	runs := make([]trace.Run, len(entries))
	for i, e := range entries {
		runs[i] = trace.Run{Name: e.Name, Rec: e.Rec}
	}
	return runs
}
