package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// TrajectorySchema identifies the BENCH_sim.json format; bump it when
// the grid or the fields change incompatibly, so a gate never compares
// entries that do not mean the same thing.
const TrajectorySchema = "mcast-bench-trajectory/v2"

// TrajectoryEntry is one point of the perf trajectory: a collective at
// one world size under one algorithm on the shared-uplink fabric. Every
// stored field is deterministic (same seed, same timeline, any machine).
type TrajectoryEntry struct {
	Op        string  `json:"op"`
	Algorithm string  `json:"algorithm"`
	Procs     int     `json:"procs"`
	Segments  int     `json:"segments"`
	MsgSize   int     `json:"msg_size"`
	SimUS     float64 `json:"sim_us"`
	Events    uint64  `json:"events"`
	// WallNS is what simulating the point cost this host. Render prints
	// it (a point that simulates slowly for its events shows there); the
	// record does not hold it. Host speed is measured by benchmark/.
	WallNS int64 `json:"-"`
	// ScoutFrames and SilentDrops re-measure the a5/a6 CI gates on the
	// trajectory grid, so the scale points are themselves gated.
	ScoutFrames int64  `json:"scout_frames"`
	SilentDrops int64  `json:"silent_drops"`
	Check       string `json:"check"` // ok | flat (S=1) | SCOUT-EXCESS | SILENT-DROP
}

// Trajectory is the machine-readable perf record (BENCH_sim.json): the
// full N-sweep grid with per-entry sim-µs, event counts and scout/drop
// checks. Nothing in it depends on the host, so two runs of one commit
// write the same bytes and the gate is an equality.
type Trajectory struct {
	Schema      string            `json:"schema"`
	Seed        uint64            `json:"seed"`
	Entries     []TrajectoryEntry `json:"entries"`
	TotalEvents uint64            `json:"total_events"`
}

// trajectoryChunk is the fixed per-rank payload of the trajectory grid:
// a little over one frame, so every entry exercises fragmentation
// without the wall time being dominated by payload memmove.
const trajectoryChunk = 2000

// RunTrajectory measures the perf trajectory: allgather and allreduce,
// flat (mcast-binary) and two-level, the chunked allreduce and the
// two-level scatter and alltoall, across N ∈ sweepNs() on the
// shared-uplink switch. One cold run per point — the sim timeline is
// deterministic.
func RunTrajectory(seed uint64) (*Trajectory, error) { return runTrajectory(seed, 0) }

// runTrajectory is RunTrajectory with the N grid capped at maxN (0 means
// uncapped), so a unit test can regenerate the rows that take
// milliseconds and leave N=256 to CI.
func runTrajectory(seed uint64, maxN int) (*Trajectory, error) {
	tr := &Trajectory{Schema: TrajectorySchema, Seed: seed}
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
	for _, procs := range (Options{MaxN: maxN}).cappedNs() {
		for _, g := range grid {
			ent, err := trajectoryPoint(g.op, g.alg, procs, seed)
			if err != nil {
				return nil, fmt.Errorf("trajectory: %w", err)
			}
			tr.Entries = append(tr.Entries, ent)
			tr.TotalEvents += ent.Events
		}
	}
	return tr, nil
}

func trajectoryPoint(op Op, a Algorithm, procs int, seed uint64) (TrajectoryEntry, error) {
	ent := TrajectoryEntry{
		Op: string(op), Algorithm: string(a), Procs: procs, MsgSize: trajectoryChunk,
	}
	prof := *sharedUplinkProfile()
	prof.Seed = seed
	start := time.Now()
	nw, worst, err := coldRun(procs, simnet.SwitchShared, prof, a, op, trajectoryChunk)
	ent.WallNS = time.Since(start).Nanoseconds()
	if err != nil {
		return ent, err
	}
	ent.SimUS = float64(worst) / 1000.0
	ent.Events = nw.Events()
	ent.Segments = nw.TopoMap().Segments()
	ent.ScoutFrames = nw.Wire.Frames(transport.ClassScout)
	ent.SilentDrops = nw.SilentDrops()
	ent.Check = entryCheck(ent)
	return ent, nil
}

// entryCheck is an entry's check: SILENT-DROP on any silent drop, and
// SCOUT-EXCESS where a two-level schedule ran and sent more scouts than
// its bound — the two-level suite, and the chunked allreduce on more
// than one segment, held to the two-level allgather's bound: its
// allgather sends no scouts, gated by its reduce-scatter, but for the
// barrier before each window past N=256.
func entryCheck(e TrajectoryEntry) string {
	a, n, s := Algorithm(e.Algorithm), e.Procs, e.Segments
	switch {
	case e.SilentDrops != 0:
		return "SILENT-DROP"
	case a == McastTwoLevel && s <= 1:
		// Single-segment fabric: the suite delegates to the flat
		// algorithm, whose scout count the bound does not describe.
		return "flat (S=1)"
	case a == McastTwoLevel && e.ScoutFrames > twoLevelScoutBound(Op(e.Op), n, s),
		a == McastChunked && s > 1 && e.ScoutFrames > twoLevelScoutBound(OpAllgather, n, s):
		return "SCOUT-EXCESS"
	}
	return "ok"
}

// twoLevelScoutBound is the per-operation scout-frame ceiling the
// trajectory gate holds the two-level suite to. Allgather and alltoall
// send N-1 scouts per window of a burst (one window up to N=256) and,
// under repair, exactly (N-S) member scouts plus S(S-1) leader scouts,
// so they get the tight (N-S) + S(S-1) + S bound (the +S is headroom for one
// release-class reclassification, and at N=256/S=64 it is 4,288 versus
// the flat rounds' 65,280); everything else keeps the generic
// N + S² + S ceiling of the a6 table.
func twoLevelScoutBound(op Op, n, s int) int64 {
	switch op {
	case OpAllgather, OpAlltoall:
		return int64((n - s) + s*(s-1) + s)
	default:
		return int64(n + s*s + s)
	}
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
	out += fmt.Sprintf("total: %d events\n", t.TotalEvents)
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

// row names an entry in a gate violation; counts is what the gate holds
// it to.
func (e TrajectoryEntry) row() string {
	return fmt.Sprintf("%s/%s n=%d", e.Op, e.Algorithm, e.Procs)
}

func (e TrajectoryEntry) counts() string {
	return fmt.Sprintf("S=%d, %v sim-us, %d events, %d scouts, %d drops",
		e.Segments, e.SimUS, e.Events, e.ScoutFrames, e.SilentDrops)
}

// GateTrajectory checks cur against the committed baseline and returns
// the violations (empty means the gate passes): any SCOUT-EXCESS or
// SILENT-DROP entry on the grid, a baseline of another schema, and every
// row the two do not share or in which they differ. The record is
// deterministic, so there is no tolerance: a change that moves a count
// commits the regenerated file, and its diff is the evidence.
func GateTrajectory(cur, base *Trajectory) []string {
	var v []string
	for _, e := range cur.Entries {
		if e.Check == "SILENT-DROP" || e.Check == "SCOUT-EXCESS" {
			v = append(v, e.row()+": "+e.Check)
		}
	}
	if base == nil {
		return v
	}
	if base.Schema != cur.Schema {
		return append(v, fmt.Sprintf("baseline schema %q does not match %q — regenerate the baseline", base.Schema, cur.Schema))
	}
	want := make(map[string]TrajectoryEntry, len(base.Entries))
	for _, e := range base.Entries {
		want[e.row()] = e
	}
	have := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		have[e.row()] = true
		b, ok := want[e.row()]
		e.WallNS, b.WallNS = 0, 0
		switch {
		case !ok:
			v = append(v, e.row()+": not in the baseline")
		case e != b:
			v = append(v, fmt.Sprintf("%s: %s; baseline has %s", e.row(), e.counts(), b.counts()))
		}
	}
	for _, b := range base.Entries {
		if !have[b.row()] {
			v = append(v, b.row()+": in the baseline, not measured")
		}
	}
	return v
}
