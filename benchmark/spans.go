package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// span is one interval recorded by the benchmark itself, around a call
// into a layer's public functions. Spans of one collective share OpID;
// Clock says which timebase Start/End use: "host" (wall time spent by
// the simulator process), "sim" (virtual ns of one simulated world,
// each starting at 0) or "wall" (ns since the UDP world started).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	World  int    `json:"world"` // which simulated/UDP world of the run
	Rank   int    `json:"rank"`  // -1: not rank-specific
	OpID   int    `json:"op_id,omitempty"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the benchmark's own spans in memory until the run ends.
// A nil *tracer is the untraced state: every method is a no-op, so the
// end-to-end runs execute the same code with no recording.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]float64 // counters read at the same boundaries
}

func newTracer() *tracer { return &tracer{counts: map[string]float64{}} }

// add records one finished span and returns its id (0 when untraced).
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// reserve allocates an id for a span whose children finish first; close
// fills it in.
func (t *tracer) reserve(name string, parent int, clock string, start int64) int {
	return t.add(span{Parent: parent, Name: name, Rank: -1, Clock: clock, Start: start})
}

func (t *tracer) close(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// traceFile is the JSON document written to benchmark/out/.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Note     string             `json:"note"`
	Counts   map[string]float64 `json:"counts"`
	Phases   map[string]float64 `json:"phase_total_us"` // trace.Summarize totals by span name
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed uint64, phases map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := traceFile{
		Workload: workload, Seed: seed,
		Note:   "spans recorded by the benchmark around calls into each layer; clock=sim is virtual ns of one simulated world, host/wall are real ns",
		Counts: t.counts, Phases: phases, Spans: t.spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
