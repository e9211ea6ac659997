package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TrajectorySchema identifies the BENCH_sim.json format; bump it when
// the grid or the fields change incompatibly, so a gate never compares
// entries that do not mean the same thing.
const TrajectorySchema = "mcast-bench-trajectory/v1"

// TrajectoryEntry is one measured point of the perf trajectory: a
// collective at one world size under one algorithm on the shared-uplink
// fabric. SimUS is deterministic (same seed, same timeline, any
// machine); Events is deterministic too; WallNS is this machine's
// wall-clock cost of simulating the run.
type TrajectoryEntry struct {
	Op        string  `json:"op"`
	Algorithm string  `json:"algorithm"`
	Procs     int     `json:"procs"`
	Segments  int     `json:"segments"`
	MsgSize   int     `json:"msg_size"`
	SimUS     float64 `json:"sim_us"`
	Events    uint64  `json:"events"`
	WallNS    int64   `json:"wall_ns"`
	// ScoutFrames and SilentDrops re-measure the a5/a6 CI gates on the
	// trajectory grid, so the scale points are themselves gated.
	ScoutFrames int64  `json:"scout_frames"`
	SilentDrops int64  `json:"silent_drops"`
	Check       string `json:"check"` // ok | flat (S=1) | SCOUT-EXCESS | SILENT-DROP
}

// Trajectory is the machine-readable perf record (BENCH_sim.json): the
// full N-sweep grid with per-entry sim-µs and event counts, plus the
// wall-clock throughput of the simulator itself. Score divides the
// measured events/sec by a calibration run of the bare event engine on
// the same machine, so a committed baseline from one host can gate a CI
// runner of a different speed: machine speed cancels in the ratio, and
// what remains is how much non-engine work the stack spends per event.
type Trajectory struct {
	Schema            string            `json:"schema"`
	Seed              uint64            `json:"seed"`
	CalibEventsPerSec float64           `json:"calib_events_per_sec"`
	Entries           []TrajectoryEntry `json:"entries"`
	TotalEvents       uint64            `json:"total_events"`
	TotalWallNS       int64             `json:"total_wall_ns"`
	EventsPerSec      float64           `json:"events_per_sec"`
	Score             float64           `json:"score"`
	// PhaseMetrics is the optional flight-recorder section
	// (AttachPhaseMetrics): phase-latency and critical-path summaries of
	// the fixed trace demo set. Informational only — GateTrajectory never
	// compares it, so baselines with and without the section interoperate.
	PhaseMetrics []PhaseMetricsEntry `json:"phase_metrics,omitempty"`
	// Metrics is the optional telemetry section (AttachMetrics): the
	// final metrics-registry snapshot of one instrumented demo run —
	// stream RTT estimators, NIC delivery rates, switch queue gauges,
	// per-op latency histograms. Informational only, gate-exempt exactly
	// like PhaseMetrics.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// trajectoryChunk is the fixed per-rank payload of the trajectory grid:
// a little over one frame, so every entry exercises fragmentation
// without the wall time being dominated by payload memmove.
const trajectoryChunk = 2000

// RunTrajectory measures the perf trajectory: allgather and allreduce,
// flat (mcast-binary) and two-level, across N ∈ sweepNs() on the
// shared-uplink switch. One rep per point — the sim timeline is
// deterministic, and the wall-clock signal is aggregated across the
// whole grid rather than trusted per point.
func RunTrajectory(seed uint64) (*Trajectory, error) {
	tr := &Trajectory{
		Schema:            TrajectorySchema,
		Seed:              seed,
		CalibEventsPerSec: calibrateEngine(),
	}
	grid := []struct {
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
	}
	for _, procs := range sweepNs() {
		for _, g := range grid {
			// Best of three passes per point: the sim timeline (and so
			// Events and SimUS) is identical every pass, and the minimum
			// wall is the machine's actual capability — single passes
			// are only ever slowed down by preemption and GC, never
			// sped up, so the minimum is what stays stable run-to-run.
			var ent TrajectoryEntry
			for pass := 0; pass < 3; pass++ {
				p, err := trajectoryPoint(g.op, g.alg, procs, seed)
				if err != nil {
					return nil, err
				}
				if pass == 0 || p.WallNS < ent.WallNS {
					ent = p
				}
			}
			tr.Entries = append(tr.Entries, ent)
			tr.TotalEvents += ent.Events
			tr.TotalWallNS += ent.WallNS
		}
	}
	if tr.TotalWallNS > 0 {
		tr.EventsPerSec = float64(tr.TotalEvents) / (float64(tr.TotalWallNS) / 1e9)
	}
	if tr.CalibEventsPerSec > 0 {
		tr.Score = tr.EventsPerSec / tr.CalibEventsPerSec
	}
	return tr, nil
}

func trajectoryPoint(op Op, a Algorithm, procs int, seed uint64) (TrajectoryEntry, error) {
	ent := TrajectoryEntry{
		Op: string(op), Algorithm: string(a), Procs: procs, MsgSize: trajectoryChunk,
	}
	algs, err := Set(a)
	if err != nil {
		return ent, err
	}
	prof := *sharedUplinkProfile()
	prof.Seed = seed
	latencies := make([]int64, procs)
	start := time.Now()
	nw, err := cluster.RunSim(procs, simnet.SwitchShared, prof, algs,
		func(c *mpi.Comm) error {
			t0 := c.Now()
			if err := workload.Make(c, op, trajectoryChunk, 0)(); err != nil {
				return err
			}
			latencies[c.Rank()] = c.Now() - t0
			return nil
		})
	ent.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		return ent, fmt.Errorf("trajectory %s/%s n=%d: %w", op, a, procs, err)
	}
	var worst int64
	for _, l := range latencies {
		if l > worst {
			worst = l
		}
	}
	ent.SimUS = float64(worst) / 1000.0
	ent.Events = nw.Events()
	ent.Segments = nw.TopoMap().Segments()
	ent.ScoutFrames = nw.Wire.Frames(transport.ClassScout)
	ent.SilentDrops = nw.SwitchStats().QueueDrops
	ent.Check = "ok"
	switch s := ent.Segments; {
	case ent.SilentDrops != 0:
		ent.Check = "SILENT-DROP"
	case a == McastTwoLevel && s <= 1:
		// Single-segment fabric: the suite delegates to the flat
		// algorithm, whose scout count the bound does not describe.
		ent.Check = "flat (S=1)"
	case a == McastTwoLevel && ent.ScoutFrames > twoLevelScoutBound(op, procs, s):
		ent.Check = "SCOUT-EXCESS"
	}
	return ent, nil
}

// twoLevelScoutBound is the per-operation scout-frame ceiling the
// trajectory gate holds the two-level suite to. Allgather and alltoall
// send exactly (N-S) member scouts plus S(S-1) leader scouts, so they
// get the tight (N-S) + S(S-1) + S bound (the +S is headroom for one
// release-class reclassification, and at N=256/S=64 it is 4,288 versus
// the flat algorithms' 65,280); everything else keeps the generic
// N + S² + S ceiling of the a6 table.
func twoLevelScoutBound(op Op, n, s int) int64 {
	switch op {
	case OpAllgather, OpAlltoall:
		return int64((n - s) + s*(s-1) + s)
	default:
		return int64(n + s*s + s)
	}
}

// calibrateEngine measures the host's raw discrete-event throughput:
// 64 self-rescheduling timers with staggered delays drained through the
// engine's heap path — a realistic pending-event population, no payload,
// no switch into a Proc. The trajectory Score is events/sec of the full
// stack divided by this number — a machine-independent measure of
// per-event overhead that a committed baseline can gate. The best of
// several ~100ms passes is taken: the maximum is the machine's actual
// capability, and it is far more stable run-to-run than any single pass
// (scheduler preemption, frequency scaling and GC only ever slow a
// pass down, never speed it up).
func calibrateEngine() float64 {
	best := 0.0
	for pass := 0; pass < 5; pass++ {
		const (
			timers = 64
			events = 1 << 22
		)
		eng := sim.New()
		n := 0
		for t := 0; t < timers; t++ {
			delay := int64(t%7 + 1)
			var tick func()
			tick = func() {
				n++
				if n < events {
					eng.At(delay, tick)
				}
			}
			eng.At(delay, tick)
		}
		start := time.Now()
		if err := eng.Run(); err != nil {
			return 0 // unreachable: no procs, nothing can deadlock
		}
		if sec := time.Since(start).Seconds(); sec > 0 {
			if eps := float64(events) / sec; eps > best {
				best = eps
			}
		}
	}
	return best
}

// Render prints the trajectory as a human-readable table (the JSON file
// is the machine interface; this is what the CI log shows).
func (t *Trajectory) Render() string {
	out := fmt.Sprintf("perf trajectory (%s, seed %d)\n", t.Schema, t.Seed)
	out += fmt.Sprintf("%-10s %-14s %6s %4s %12s %12s %12s %8s %s\n",
		"op", "algorithm", "N", "S", "sim-us", "events", "wall-ms", "scouts", "check")
	for _, e := range t.Entries {
		out += fmt.Sprintf("%-10s %-14s %6d %4d %12.0f %12d %12.1f %8d %s\n",
			e.Op, e.Algorithm, e.Procs, e.Segments, e.SimUS, e.Events,
			float64(e.WallNS)/1e6, e.ScoutFrames, e.Check)
	}
	out += fmt.Sprintf("total: %d events in %.2fs = %.0f events/sec; calib %.0f events/sec; score %.4f\n",
		t.TotalEvents, float64(t.TotalWallNS)/1e9, t.EventsPerSec, t.CalibEventsPerSec, t.Score)
	return out
}

// WriteFile writes the trajectory as indented JSON.
func (t *Trajectory) WriteFile(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadTrajectory reads a BENCH_sim.json written by WriteFile.
func LoadTrajectory(path string) (*Trajectory, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("trajectory %s: %w", path, err)
	}
	return &t, nil
}

// GateTrajectory checks cur against the committed baseline and returns
// the violations (empty means the gate passes): any SCOUT-EXCESS or
// SILENT-DROP entry on the grid, and a normalized events/sec score more
// than maxRegression below the baseline's. Deterministic per-entry
// event counts that drifted from the baseline are reported as
// violations too when they grew beyond the same tolerance — an event
// count is wall-clock-independent, so growth there is a real perf
// regression, not runner noise.
func GateTrajectory(cur, base *Trajectory, maxRegression float64) []string {
	var v []string
	for _, e := range cur.Entries {
		if e.Check == "SILENT-DROP" || e.Check == "SCOUT-EXCESS" {
			v = append(v, fmt.Sprintf("%s/%s n=%d: %s", e.Op, e.Algorithm, e.Procs, e.Check))
		}
	}
	if base == nil {
		return v
	}
	if base.Schema != cur.Schema {
		v = append(v, fmt.Sprintf("baseline schema %q does not match %q — regenerate the baseline", base.Schema, cur.Schema))
		return v
	}
	if base.Score > 0 && cur.Score < base.Score*(1-maxRegression) {
		v = append(v, fmt.Sprintf("normalized events/sec score %.4f is %.0f%% below baseline %.4f",
			cur.Score, 100*(1-cur.Score/base.Score), base.Score))
	}
	baseEvents := make(map[string]uint64, len(base.Entries))
	for _, e := range base.Entries {
		baseEvents[fmt.Sprintf("%s/%s/%d/%d", e.Op, e.Algorithm, e.Procs, e.MsgSize)] = e.Events
	}
	for _, e := range cur.Entries {
		if be, ok := baseEvents[fmt.Sprintf("%s/%s/%d/%d", e.Op, e.Algorithm, e.Procs, e.MsgSize)]; ok &&
			float64(e.Events) > float64(be)*(1+maxRegression) {
			v = append(v, fmt.Sprintf("%s/%s n=%d: %d events vs baseline %d (+%.0f%%)",
				e.Op, e.Algorithm, e.Procs, e.Events, be, 100*(float64(e.Events)/float64(be)-1)))
		}
	}
	return v
}
