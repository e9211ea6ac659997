package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/udpnet"
)

func quickOptions(t *testing.T, seed uint64) options {
	t.Helper()
	return options{seed: seed, window: 300 * time.Millisecond, quick: true,
		port: 20000 + os.Getpid()%20000, outDir: t.TempDir()}
}

func needMulticast(t *testing.T, name string) {
	t.Helper()
	if strings.HasPrefix(name, "udp_") {
		if err := udpnet.Probe(); err != nil {
			t.Skipf("IP multicast unavailable: %v", err)
		}
	}
}

// TestOracleCountsCorruptedResultAsFailed runs a simulated bcast under
// an algorithm set that flips one byte of one rank's result: the
// operation must be counted as failed, and the clean run must not.
func TestOracleCountsCorruptedResultAsFailed(t *testing.T) {
	pt := simPoint{label: "bcast", topo: simnet.Switch, procs: 4, alg: bench.McastBinary, kind: opBcast, size: 1000, warmups: 1, reps: 1, skew: maxSkew}
	algs, err := bench.Set(pt.alg)
	if err != nil {
		t.Fatal(err)
	}
	if r := runSim(pt, algs, 1, nil, nil, 1, 0); r.failed {
		t.Fatalf("clean run counted as failed: %v", r.err)
	}
	real := algs.Bcast
	calls := 0
	algs.Bcast = func(c *mpi.Comm, buf []byte, root int) error {
		err := real(c, buf, root)
		if c.Rank() == 2 {
			if calls++; calls == 2 { // the measured call, after one warm-up
				buf[len(buf)/2] ^= 0x01
			}
		}
		return err
	}
	if r := runSim(pt, algs, 1, nil, nil, 1, 0); !r.failed {
		t.Fatal("a result with one corrupted byte passed the oracle")
	}
}

// TestBarrierOracle checks the timestamp oracle of the data-less op.
func TestBarrierOracle(t *testing.T) {
	if !barrierHolds([]int64{0, 5, 9}, []int64{10, 9, 12}) {
		t.Error("a correct barrier was rejected")
	}
	if barrierHolds([]int64{0, 5, 9}, []int64{10, 8, 12}) {
		t.Error("a rank that left before the last one entered was accepted")
	}
}

// TestQuickSmoke runs every workload's end-to-end and traced run at
// smoke size: nothing may fail, every printed name is well formed and
// declared, every declared name is produced by some workload, and every
// traced run leaves its trace file behind.
func TestQuickSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.name) {
			t.Errorf("declared name %q is outside the allowed alphabet", s.name)
		}
		if declared[s.name] {
			t.Errorf("name %q declared twice", s.name)
		}
		declared[s.name] = true
	}
	nonZero := map[string]bool{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			needMulticast(t, w.name)
			o := quickOptions(t, 1)
			for _, layers := range []bool{false, true} {
				res, err := runWorkload(w.name, layers, o)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted < 1 {
					t.Errorf("layers=%v: %d of %d operations failed: %v", layers, res.failed, res.attempted, res.notes)
				}
				for _, n := range res.notes {
					if strings.Contains(n, "leak:") {
						t.Error(n)
					}
				}
				for name, v := range res.metrics {
					if !declared[name] {
						t.Errorf("metric %q is reported but not declared in the ledger", name)
					}
					if v != 0 {
						nonZero[name] = true
					}
				}
				if !layers {
					for _, s := range endToEnd {
						if res.metrics[s.name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", s.name, res.metrics[s.name])
						}
					}
				}
			}
			if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
		})
	}
	if t.Failed() || udpnet.Probe() != nil {
		return
	}
	// Rows that legitimately read 0 on every quick run: failure counters
	// of healthy runs, and switch backpressure the smoke-sized
	// sim_scale_n256 fabric never provokes.
	mayBeZero := map[string]bool{
		"ethernet.switch_queue_drops": true, "udpnet.bad_packets": true, "sim.engine_allocs_per_event": true,
		"ethernet.switch_pauses_per_op": true, "reliab.dup_fragments_per_op": true, "core.phase_share.round-consume": true,
	}
	for name := range declared {
		if !nonZero[name] && !mayBeZero[name] {
			t.Errorf("declared metric %s was 0 on every workload: nothing produces it", name)
		}
	}
}

// TestSimulatedMetricsAreDeterministic: one seed gives bit-identical
// simulated latency, event and frame counts; another seed gives another
// latency.
func TestSimulatedMetricsAreDeterministic(t *testing.T) {
	exact := []string{"sim.events_per_op", "core.scout_frames_per_op", "core.data_frames_per_op", "core.ctl_frames_per_op"}
	for _, name := range []string{"sim_paper_n8", "sim_scale_n256"} {
		var lat [2]float64
		var counts [2]result
		for i := range lat {
			o := quickOptions(t, 7)
			e2e, err := runWorkload(name, false, o)
			if err != nil {
				t.Fatal(err)
			}
			lat[i] = e2e.metrics["latency_us"]
			w, err := lookup(name, true)
			if err != nil {
				t.Fatal(err)
			}
			if counts[i], err = w.layers(o); err != nil {
				t.Fatal(err)
			}
		}
		if lat[0] != lat[1] {
			t.Errorf("%s: latency_us %v then %v with one seed", name, lat[0], lat[1])
		}
		for _, m := range exact {
			if a, b := counts[0].metrics[m], counts[1].metrics[m]; a != b || a == 0 {
				t.Errorf("%s: %s = %v then %v with one seed", name, m, a, b)
			}
		}
	}
	a, err := runWorkload("sim_paper_n8", false, quickOptions(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload("sim_paper_n8", false, quickOptions(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a.metrics["latency_us"] == b.metrics["latency_us"] {
		t.Errorf("sim_paper_n8: seeds 7 and 8 gave the same latency_us %v", a.metrics["latency_us"])
	}
}

// benchmarkJSON mirrors the schema of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonMetric   `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// ledgerJSON renders the ledger in BENCHMARK.json's schema.
func ledgerJSON() benchmarkJSON {
	doc := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, s := range endToEnd {
		bound := s.bound
		doc.EndToEnd = append(doc.EndToEnd, jsonMetric{s.name, s.unit, s.better, &bound})
	}
	for _, s := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jsonMetric{s.name, s.unit, s.better, nil})
	}
	return doc
}

// TestBenchmarkJSONMatchesLedger holds the root BENCHMARK.json and the
// ledger together, and both inside the contract's limits.
func TestBenchmarkJSONMatchesLedger(t *testing.T) {
	want, err := json.MarshalIndent(ledgerJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nexpected content:\n%s", err, want)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	again, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Errorf("BENCHMARK.json disagrees with benchmark/ledger.go; expected content:\n%s", want)
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(s.unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("%s: better = %q", s.name, s.better)
		}
	}
	for _, s := range endToEnd {
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
		hasSetup = hasSetup || (s.name == "setup_s" && s.unit == "s" && s.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (has %d)", w.name, len(w.why))
		}
	}
}

// TestCompareVerdicts pins the compare mode's classification.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "latency_us", better: "lower", bound: 0.05}
	higher := metricSpec{name: "ops_per_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		s    metricSpec
		a, b float64
		want string
	}{
		{lower, 100, 104, "within-bound"}, {lower, 100, 106, "worse"}, {lower, 100, 90, "better"},
		{higher, 100, 91, "within-bound"}, {higher, 100, 89, "worse"}, {higher, 100, 120, "better"},
		{lower, 0, 100, "unresolved"}, {higher, 100, 0, "unresolved"},
	} {
		if got := verdict(c.s, c.s.bound, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.s.name, c.a, c.b, got, c.want)
		}
	}
	if b := compareBound(lower, "sim_paper_n8"); b != 0.001 {
		t.Errorf("simulated latency compared with bound %v, want 0.001", b)
	}
	if b := compareBound(lower, "udp_small_n4"); b != lower.bound {
		t.Errorf("wall-clock latency compared with bound %v, want %v", b, lower.bound)
	}
	same := map[string]map[string]report{}
	for _, w := range workloads {
		rep := report{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
		for _, s := range endToEnd {
			rep.Metrics[s.name] = metricValue{Value: 1, Unit: s.unit}
		}
		same[w.name] = map[string]report{"e2e": rep}
	}
	if code := compareReports(same, same); code != 0 {
		t.Errorf("comparing a run with itself exits %d", code)
	}
}
