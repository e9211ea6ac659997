package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

// loadOut reads a file written by -out.
func loadOut(path string) (map[string]map[string]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]map[string]report
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// compareBound is the bound -compare holds a metric to on a workload.
// BENCHMARK.json's bounds must absorb the difference between seeds and
// between runs on a noisy host; -compare looks at two runs with one
// seed, where everything measured on the simulated clock repeats
// exactly, so there any move beyond 0.1 % is real.
func compareBound(s metricSpec, workload string) float64 {
	if strings.HasPrefix(workload, "sim_") && s.name != "setup_s" {
		return 0.001
	}
	return s.bound
}

// verdict classifies b against a for one end-to-end metric: worse or
// better when the move exceeds bound, within-bound otherwise, unresolved
// when either side is missing or not positive.
func verdict(s metricSpec, bound, a, b float64) string {
	if a <= 0 || b <= 0 {
		return "unresolved"
	}
	change := (b - a) / a // positive: b is larger
	if s.better == "higher" {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	default:
		return "within-bound"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of B
// against A and returns 1 if any row is worse or unresolved, or if B
// failed operations A did not.
func compareFiles(pathA, pathB string) int {
	a, err := loadOut(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := loadOut(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareReports(a, b)
}

func compareReports(a, b map[string]map[string]report) int {
	exit := 0
	fmt.Printf("%-16s %-12s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, w := range workloads {
		ra, okA := a[w.name]["e2e"]
		rb, okB := b[w.name]["e2e"]
		if !okA || !okB {
			fmt.Printf("%-16s %-12s %14s %14s %8s  unresolved (missing from one side)\n", w.name, "-", "-", "-", "-")
			exit = 1
			continue
		}
		for _, s := range endToEnd {
			va, vb := ra.Metrics[s.name].Value, rb.Metrics[s.name].Value
			bound := compareBound(s, w.name)
			v := verdict(s, bound, va, vb)
			if v == "worse" || v == "unresolved" {
				exit = 1
			}
			fmt.Printf("%-16s %-12s %14.6g %14.6g %+7.2f%%  %s (bound %g%%)\n",
				w.name, s.name, va, vb, 100*ratio(vb-va, va), v, 100*bound)
		}
		if rb.Failed > ra.Failed {
			fmt.Printf("%-16s %-12s %14d %14d %8s  worse (any increase)\n", w.name, "failed", ra.Failed, rb.Failed, "")
			exit = 1
		}
	}
	return exit
}

// checkScaleAgainstTrajectory re-runs the sim_scale_n256 grid with entry
// skew off — exactly bench.RunTrajectory's methodology — and asserts it
// reproduces the N=256 rows of the committed BENCH_sim.json: simulated
// µs, event count and scout frames. Payload bytes and the oracle must
// not move a single simulated timestamp.
func checkScaleAgainstTrajectory(seed uint64) {
	traj, err := bench.LoadTrajectory("BENCH_sim.json")
	if err != nil {
		fmt.Printf("check: sim_scale_n256 vs BENCH_sim.json skipped: %v\n", err)
		return
	}
	w := simScaleN256(false)
	for i := range w.points {
		w.points[i].skew = 0
	}
	p, err := w.runPass(seed, nil, false)
	if err != nil {
		fmt.Printf("check: sim_scale_n256 vs BENCH_sim.json FAILED: %v\n", err)
		return
	}
	mismatches := 0
	for i, pt := range w.points {
		found := false
		for _, e := range traj.Entries {
			if e.Procs != pt.procs || e.Op != string(pt.kind) || e.Algorithm != string(pt.alg) {
				continue
			}
			found = true
			got := p.points[i]
			if got.simUS[0] != e.SimUS || got.events != e.Events || got.scout != e.ScoutFrames {
				mismatches++
				fmt.Printf("check: %s: got %.2f sim-us, %d events, %d scouts; BENCH_sim.json has %.2f, %d, %d\n",
					pt.label, got.simUS[0], got.events, got.scout, e.SimUS, e.Events, e.ScoutFrames)
			}
		}
		if !found {
			mismatches++
			fmt.Printf("check: %s: no N=%d row in BENCH_sim.json\n", pt.label, pt.procs)
		}
	}
	if mismatches == 0 {
		fmt.Printf("check: sim_scale_n256 with skew off reproduces the %d N=256 rows of BENCH_sim.json exactly (sim-us, events, scout frames): ok\n", len(w.points))
	} else {
		fmt.Printf("check: sim_scale_n256 vs BENCH_sim.json: %d MISMATCH\n", mismatches)
	}
}
