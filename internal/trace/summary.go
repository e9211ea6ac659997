package trace

import (
	"fmt"
	"sort"
	"strings"
)

// PhaseStat is the latency distribution of one named span across all
// ranks of a run, in microseconds.
type PhaseStat struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MinUS    float64 `json:"min_us"`
	MedianUS float64 `json:"median_us"`
	MaxUS    float64 `json:"max_us"`
	TotalUS  float64 `json:"total_us"`
}

// PathStep is one link of the critical path: a span on one rank's track
// that the completion time provably waited through. Gate names the rank
// the span was waiting on (NoGate when the walk stayed on-rank).
type PathStep struct {
	Rank    int     `json:"rank"`
	Name    string  `json:"name"`
	BeginUS float64 `json:"begin_us"`
	EndUS   float64 `json:"end_us"`
	Gate    int     `json:"gate"`
}

// Summary is the per-collective metrics report extracted from a
// recorded run: phase-latency histograms and the critical path — the
// chain of spans, walked backwards from the last span end across
// gated-on-rank edges, that bounds completion time.
type Summary struct {
	Op           string      `json:"op"`
	CompletionUS float64     `json:"completion_us"`
	BoundRank    int         `json:"bound_rank"`
	Phases       []PhaseStat `json:"phases"`
	Critical     []PathStep  `json:"critical_path"`
}

// span is a matched begin/end pair on one rank's track.
type span struct {
	rank       int32
	name       string
	begin, end int64
	gate       int32
	depth      int
}

// matchSpans pairs SpanBegin/SpanEnd events into intervals, per rank, in
// log order. Unclosed spans are dropped.
func matchSpans(events []Event) []span {
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Rank != events[j].Rank {
			return events[i].Rank < events[j].Rank
		}
		return events[i].TS < events[j].TS
	})
	open := make(map[int32][]span)
	var out []span
	for _, e := range events {
		switch e.Kind {
		case SpanBegin:
			open[e.Rank] = append(open[e.Rank], span{
				rank: e.Rank, name: e.Name, begin: e.TS, gate: NoGate,
				depth: len(open[e.Rank]),
			})
		case SpanEnd:
			st := open[e.Rank]
			if len(st) == 0 {
				continue
			}
			s := st[len(st)-1]
			open[e.Rank] = st[:len(st)-1]
			s.end = e.TS
			s.gate = e.Gate
			out = append(out, s)
		}
	}
	return out
}

// Summarize extracts the metrics report from one recorded collective.
// The log should cover a single operation (reset the recorder between
// reps); with several operations recorded the phases aggregate and the
// critical path describes the last one.
func Summarize(r *Recorder) *Summary {
	spans := matchSpans(r.Events())
	if len(spans) == 0 {
		return &Summary{BoundRank: NoGate}
	}
	sum := &Summary{}

	// Completion: the latest span end anywhere; that rank bounds the run.
	// The op name is the outermost (depth-0) span reaching that end.
	var last span
	for _, s := range spans {
		if s.end > last.end || (s.end == last.end && s.depth < last.depth) {
			last = s
		}
	}
	var t0 int64 = last.begin
	for _, s := range spans {
		if s.begin < t0 {
			t0 = s.begin
		}
	}
	sum.Op = last.name
	sum.BoundRank = int(last.rank)
	sum.CompletionUS = float64(last.end-t0) / 1e3

	// Phase-latency histogram per span name.
	durs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.name] = append(durs[s.name], float64(s.end-s.begin)/1e3)
	}
	for name, ds := range durs {
		sort.Float64s(ds)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		sum.Phases = append(sum.Phases, PhaseStat{
			Name: name, Count: len(ds),
			MinUS: ds[0], MedianUS: ds[len(ds)/2], MaxUS: ds[len(ds)-1],
			TotalUS: total,
		})
	}
	sort.Slice(sum.Phases, func(i, j int) bool { return sum.Phases[i].TotalUS > sum.Phases[j].TotalUS })

	// Critical path: walk backwards from the bounding end. At each step
	// take the latest span (deepest on ties) on the current rank ending
	// at or before the cursor; a gated span jumps the cursor onto the
	// gating rank's track (the peer whose message ended the wait), an
	// ungated one steps back to its own begin. Depth-0 op spans only
	// qualify when a rank recorded no phase detail at all, so the path
	// names phases, not whole operations.
	byRank := make(map[int32][]span)
	hasPhases := false
	for _, s := range spans {
		byRank[s.rank] = append(byRank[s.rank], s)
		if s.depth > 0 {
			hasPhases = true
		}
	}
	// maxPathSteps bounds the walk. It must exceed the deepest real phase
	// graph — the chunked allreduce records an event-driven reduce-scatter
	// followed by its allgather's spans per rank, and truncating there
	// would cut the path off inside the allgather and never reach the
	// reduce-scatter the completion time actually waited through.
	const maxPathSteps = 64
	used := make(map[span]bool)
	cur, cursor := last.rank, last.end
	var path []PathStep
	for len(path) < maxPathSteps {
		var best span
		found := false
		deepOnly := false
		if hasPhases {
			for _, s := range byRank[cur] {
				if s.depth > 0 {
					deepOnly = true
					break
				}
			}
		}
		for _, s := range byRank[cur] {
			if used[s] || s.end > cursor || (deepOnly && s.depth == 0) {
				continue
			}
			if !found || s.end > best.end || (s.end == best.end && s.depth > best.depth) {
				best, found = s, true
			}
		}
		if !found {
			break
		}
		used[best] = true
		step := PathStep{
			Rank: int(best.rank), Name: best.name,
			BeginUS: float64(best.begin-t0) / 1e3,
			EndUS:   float64(best.end-t0) / 1e3,
			Gate:    int(best.gate),
		}
		path = append(path, step)
		if best.gate != NoGate && best.gate != cur {
			cur, cursor = best.gate, best.end
		} else {
			cursor = best.begin
		}
	}
	// Walked newest-first; report in time order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	sum.Critical = path
	return sum
}

// Format renders the summary as the post-run report mcastbench and
// mpirun print.
func (s *Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: completion %.1f µs, bounded by rank %d\n", s.Op, s.CompletionUS, s.BoundRank)
	fmt.Fprintf(&b, "  phase latencies (µs):\n")
	fmt.Fprintf(&b, "    %-24s %6s %10s %10s %10s %12s\n", "phase", "count", "min", "median", "max", "total")
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "    %-24s %6d %10.1f %10.1f %10.1f %12.1f\n",
			p.Name, p.Count, p.MinUS, p.MedianUS, p.MaxUS, p.TotalUS)
	}
	fmt.Fprintf(&b, "  critical path:\n")
	for _, st := range s.Critical {
		gate := ""
		if st.Gate != NoGate {
			gate = fmt.Sprintf("  (gated on rank %d)", st.Gate)
		}
		fmt.Fprintf(&b, "    rank %-4d %-24s %10.1f → %10.1f µs%s\n", st.Rank, st.Name, st.BeginUS, st.EndUS, gate)
	}
	return b.String()
}
