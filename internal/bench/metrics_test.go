package bench

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestMetricsDoNotPerturbSimTime is the telemetry plane's core contract,
// the twin of TestTraceDoesNotPerturbSimTime: attaching a metrics
// registry reads the virtual clock but never advances it and schedules
// no events, so every simulated timestamp is byte-identical with and
// without telemetry. Each sweep config runs twice — Profile.Metrics nil
// vs a live registry — and the per-repetition sample vectors must match
// exactly (float64 equality, not a tolerance: the samples derive from
// int64 sim-ns).
func TestMetricsDoNotPerturbSimTime(t *testing.T) {
	for _, cfg := range traceSweepConfigs() {
		cfg := cfg
		t.Run(string(cfg.op)+"/"+string(cfg.alg), func(t *testing.T) {
			t.Parallel()
			run := func(reg *metrics.Registry) []float64 {
				prof := *sharedUplinkProfile()
				prof.Metrics = reg
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
			reg := metrics.NewRegistry()
			metered := run(reg)
			if len(bare) != len(metered) {
				t.Fatalf("sample counts differ: %d vs %d", len(bare), len(metered))
			}
			for i := range bare {
				if bare[i] != metered[i] {
					t.Errorf("rep %d: %v µs unmetered vs %v µs metered", i, bare[i], metered[i])
				}
			}
			s := reg.Snapshot()
			if len(s.Gauges) == 0 || len(s.Counters) == 0 || len(s.Meters) == 0 {
				t.Errorf("registry attached but sparse: %d gauges, %d counters, %d meters",
					len(s.Gauges), len(s.Counters), len(s.Meters))
			}
		})
	}
}

// TestMetricsObservablesPopulated runs one instrumented collective and
// checks every observable family the telemetry plane promises is
// actually live: stream RTT estimators sampled real round trips, NIC
// meters counted delivered bytes, the shared-uplink run put depth in the
// switch queue gauges, and the collective dispatchers recorded ops and
// latencies under the selected algorithm's label. The chunked allreduce
// at the trace-demo point is the densest single exercise of the plane:
// its reduce-scatter drives the reliable streams (RTT estimators, window
// occupancy), its multicast gather the NIC delivery meters.
func TestMetricsObservablesPopulated(t *testing.T) {
	reg := metrics.NewRegistry()
	prof := *sharedUplinkProfile()
	prof.Seed = 7
	prof.Metrics = reg
	if _, _, err := coldRun(TraceDemoProcs, simnet.SwitchShared, prof, McastChunked, OpAllreduce, TraceDemoSize); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	wantGauge := []string{
		"mcast_stream_srtt_us", "mcast_stream_rtt_gradient_us",
		"mcast_stream_window", "mcast_switch_queue_depth",
	}
	for _, fam := range wantGauge {
		if !hasFamily(familyKeys(s.Gauges), fam) {
			t.Errorf("no %s gauge in snapshot", fam)
		}
	}
	if !hasFamily(familyKeys(s.Meters), "mcast_nic_delivered_bytes") {
		t.Error("no mcast_nic_delivered_bytes meter in snapshot")
	}
	var delivered int64
	for name, m := range s.Meters {
		if strings.HasPrefix(name, "mcast_nic_delivered_bytes") {
			delivered += m.Total
		}
	}
	if delivered == 0 {
		t.Error("NIC delivery meters counted zero bytes")
	}
	srtt := false
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, "mcast_stream_srtt_us") && v > 0 {
			srtt = true
		}
	}
	if !srtt {
		t.Error("no stream published a positive smoothed RTT")
	}
	opsName := metrics.Labeled("mcast_coll_ops", "op", "allreduce", "alg", string(McastChunked))
	if s.Counters[opsName] == 0 {
		t.Errorf("collective counter %s absent or zero; counters: %v", opsName, familyKeys(s.Counters))
	}
	latName := metrics.Labeled("mcast_coll_latency_us", "op", "allreduce", "alg", string(McastChunked))
	h, ok := s.Histograms[latName]
	if !ok || h.Count == 0 || h.Sum <= 0 {
		t.Errorf("latency histogram %s absent or empty", latName)
	}
}

// TestChunkedAllreduceCriticalPath covers the critical-path extraction
// on the chunked allreduce's phase graph on even segments: the walk must
// pass through the event-driven reduce-scatter and then through a phase
// of the scout-free allgather — at the demo point (5,000 B, where every
// rank multicasts its own slice) and at 2,000 B (where each segment's
// slices fit one frame, so members hand them to their leader first).
func TestChunkedAllreduceCriticalPath(t *testing.T) {
	gather := map[string]bool{"slice-combine": true, "chunk-mcast": true, "chunk-consume": true}
	for _, size := range []int{TraceDemoSize, 2000} {
		rec, err := traceOne(OpAllreduce, McastChunked, TraceDemoProcs, size, 7)
		if err != nil {
			t.Fatal(err)
		}
		sum := trace.Summarize(rec)
		if sum == nil || len(sum.Critical) == 0 {
			t.Fatalf("%d B: empty summary for traced chunked allreduce", size)
		}
		rs := slices.IndexFunc(sum.Critical, func(s trace.PathStep) bool { return s.Name == "reduce-scatter" })
		if rs < 0 {
			t.Errorf("%d B: critical path %v does not pass through reduce-scatter", size, sum.Critical)
		} else if !slices.ContainsFunc(sum.Critical[rs+1:], func(s trace.PathStep) bool { return gather[s.Name] }) {
			t.Errorf("%d B: critical path %v names no allgather phase after reduce-scatter", size, sum.Critical)
		}
		phases := make(map[string]int)
		for _, p := range sum.Phases {
			phases[p.Name] = p.Count
		}
		if phases["reduce-scatter"] == 0 {
			t.Errorf("%d B: phase table %v has no reduce-scatter spans", size, sum.Phases)
		}
		if size != TraceDemoSize && phases["slice-combine"] == 0 {
			t.Errorf("%d B: phase table %v has no slice-combine spans", size, sum.Phases)
		}
		t.Logf("%d B:\n%s", size, sum.Format())
	}
}

// familyKeys returns the metric names of one snapshot section.
func familyKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// hasFamily reports whether any metric name belongs to family fam
// (exact match or fam followed by a label block).
func hasFamily(names []string, fam string) bool {
	for _, n := range names {
		if n == fam || strings.HasPrefix(n, fam+"{") {
			return true
		}
	}
	return false
}
