// Command mcastbench regenerates the paper's evaluation: every figure
// (7–16, 18 and 19, including the collective-suite extensions, the
// shared-uplink switch N-sweeps 14n/15n and the two-level topology
// sweeps 14h/15h) and the ablation experiments (a1–a6), measured on the
// simulated Fast Ethernet testbed.
//
// Usage:
//
//	mcastbench                  # run everything at paper methodology
//	mcastbench -figure 8        # one experiment
//	mcastbench -figure 14n      # allgather N-sweep, N in {4..256}
//	mcastbench -figure 14h      # two-level vs flat allgather on the same sweep
//	mcastbench -figure a5       # shared-uplink queue occupancy + drop check
//	mcastbench -figure a6       # two-level scout economy vs the N+S²+S gate
//	mcastbench -quick           # coarse grid for a fast look
//	mcastbench -reps 30 -step 100
//	mcastbench -csv results/    # also write one CSV per experiment
//	mcastbench -figure 14h -cpuprofile cpu.pprof -memprofile mem.pprof
//	                            # profile the harness (go tool pprof)
//
// Trajectory mode (instead of figures):
//
//	mcastbench -trajectory BENCH_sim.json                    # measure + write
//	mcastbench -trajectory out.json -gate BENCH_sim.json     # and gate vs baseline
//
// The trajectory is the N-sweep perf record (sim-µs, event counts and
// scout frames per collective/N/algorithm, all deterministic: two runs
// write the same bytes); with -gate the process exits non-zero on any
// SCOUT-EXCESS or SILENT-DROP entry and on every row that differs from
// the baseline's, is missing from it or is new to it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/trace"
)

func main() {
	var (
		figure = flag.String("figure", "all", "experiment id (7..16, 18, 19, 14n, 15n, 14h, 15h, a1..a6) or 'all'")
		reps   = flag.Int("reps", 20, "repetitions per point (paper used 20-30)")
		step   = flag.Int("step", 250, "message size step in bytes")
		max    = flag.Int("max", 5000, "maximum message size in bytes")
		seed   = flag.Uint64("seed", 1, "base random seed")
		quick  = flag.Bool("quick", false, "coarse grid (3 reps, 1000-byte steps, N capped at 32)")
		csvDir = flag.String("csv", "", "directory to write per-experiment CSV files")
		trajec = flag.String("trajectory", "", "write the N-sweep perf trajectory (BENCH_sim.json) to this path and skip the figures")
		gate   = flag.String("gate", "", "baseline BENCH_sim.json to gate the trajectory against (requires -trajectory)")
		trOut  = flag.String("trace", "", "record the flight-recorder demo set, write a Chrome/Perfetto trace to this path, and skip the figures")
		cpuOut = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memOut = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	os.Exit(run(flag.Args(), figure, reps, step, max, seed, quick, csvDir, trajec, gate, trOut, cpuOut, memOut))
}

func run(args []string, figure *string, reps, step, max *int, seed *uint64, quick *bool, csvDir, trajec, gate, trOut, cpuOut, memOut *string) int {
	if len(args) > 0 {
		fmt.Fprintf(os.Stderr, "mcastbench: %s is not a flag; mcastbench takes no arguments (see -h)\n", args[0])
		return 2
	}
	// 0 means the default; a negative step would never reach -max.
	for _, f := range []struct {
		name string
		v    int
	}{{"reps", *reps}, {"step", *step}, {"max", *max}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "mcastbench: -%s %d is negative; give a positive value, or 0 for the default\n", f.name, f.v)
			return 2
		}
	}
	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mcastbench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memOut != "" {
		defer func() {
			f, err := os.Create(*memOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcastbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mcastbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *trajec != "" {
		return runTrajectory(*trajec, *gate, *seed)
	}
	if *gate != "" {
		fmt.Fprintln(os.Stderr, "mcastbench: -gate requires -trajectory")
		return 2
	}
	if *trOut != "" {
		return runTrace(*trOut, *seed)
	}

	opts := bench.Options{Reps: *reps, SizeStep: *step, MaxSize: *max, Seed: *seed}
	if *quick {
		opts.Reps, opts.SizeStep = 3, 1000
		opts.MaxN = 32
	}

	defs := bench.Defs()
	if *figure != "all" {
		d, ok := bench.Lookup(*figure)
		if !ok {
			fmt.Fprintf(os.Stderr, "mcastbench: unknown experiment %q; known:", *figure)
			for _, d := range defs {
				fmt.Fprintf(os.Stderr, " %s", d.ID)
			}
			fmt.Fprintln(os.Stderr)
			return 2
		}
		defs = []bench.Def{d}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mcastbench: %v\n", err)
			return 1
		}
	}

	for _, d := range defs {
		r, err := d.Build(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastbench: experiment %s: %v\n", d.ID, err)
			return 1
		}
		fmt.Println(strings.Repeat("=", 100))
		fmt.Println(r.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, "experiment_"+d.ID+".csv")
			if err := os.WriteFile(path, []byte(r.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mcastbench: writing %s: %v\n", path, err)
				return 1
			}
			fmt.Printf("(csv written to %s)\n", path)
		}
	}
	return 0
}

// runTrace records the flight-recorder demo set — a flat broadcast, a
// flat allgather and a two-level allgather at the fig-14h point —
// writes the merged Chrome/Perfetto trace to out, validates the export
// against the schema contract, and prints each run's phase-latency and
// critical-path summary. Load the file at https://ui.perfetto.dev or
// chrome://tracing: one process per run, one thread track per rank (plus
// the "fabric" track's switch gauges).
func runTrace(out string, seed uint64) int {
	entries, err := bench.TraceDemo(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastbench: trace: %v\n", err)
		return 1
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, bench.TraceRuns(entries)...); err != nil {
		fmt.Fprintf(os.Stderr, "mcastbench: trace export: %v\n", err)
		return 1
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		fmt.Fprintf(os.Stderr, "mcastbench: trace: %v\n", err)
		return 1
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "mcastbench: writing %s: %v\n", out, err)
		return 1
	}
	for _, e := range entries {
		fmt.Println(strings.Repeat("=", 100))
		fmt.Printf("%s (%d events)\n%s", e.Name, e.Rec.Len(), e.Summary.Format())
	}
	fmt.Printf("trace validated: %d runs, %d bytes written to %s\n", len(entries), buf.Len(), out)
	return 0
}

// runTrajectory measures the perf trajectory, writes it to out, and —
// when a baseline is given — gates against it, returning a non-zero
// exit code on any violation.
func runTrajectory(out, baseline string, seed uint64) int {
	tr, err := bench.RunTrajectory(seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcastbench: %v\n", err)
		return 1
	}
	fmt.Print(tr.Render())
	if err := tr.WriteFile(out); err != nil {
		fmt.Fprintf(os.Stderr, "mcastbench: writing %s: %v\n", out, err)
		return 1
	}
	fmt.Printf("(trajectory written to %s)\n", out)

	var base *bench.Trajectory
	if baseline != "" {
		base, err = bench.LoadTrajectory(baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcastbench: loading baseline: %v\n", err)
			return 1
		}
	}
	violations := bench.GateTrajectory(tr, base)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "mcastbench: GATE: %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	if base != nil {
		fmt.Printf("gate passed: every row equals %s\n", baseline)
	}
	return 0
}
