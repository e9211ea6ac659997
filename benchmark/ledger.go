package main

import (
	"fmt"
	"strings"
)

// The ledger declares everything the benchmark reports. BENCHMARK.json
// at the repo root repeats the names, units, directions and bounds (a
// test holds the two together); the layer, source and prediction of each
// per-layer row live here and in README.md, because BENCHMARK.json's
// schema has no place for them.

// runSeconds is the measuring window of one run (BENCHMARK.json
// run_seconds), used when -seconds is not given.
const runSeconds = 20

type workloadSpec struct {
	name string
	why  string
}

var workloads = []workloadSpec{
	{"sim_paper_n8", "The paper's regime (8 stations, hub and switch, MPICH vs scout multicast): thousands of sub-ms simulations, so world set-up, proc hand-off and CSMA/CD dominate host time."},
	{"sim_scale_n256", "The seven N=256 rows of BENCH_sim.json on the shared-uplink switch: 4.6 M events per pass, so per-event cost, topo and the two-level paths dominate."},
	{"sim_loss_n32", "mcast-resilient at 1% loss beside the same grid lossless: the repair path (probes, retransmits, NACKs) of the layers the other workloads use only on the happy path."},
	{"udp_small_n4", "Seven collectives at 64 B over real loopback UDP multicast, closed loop: per-message cost (syscalls, hand-offs, matching, stream window) undiluted by payload."},
	{"udp_large_n4", "64 KiB collectives (47 fragments) on the same sockets: per-byte and per-fragment cost, which should move opposite to udp_small_n4 when per-fragment work is traded."},
}

// metricSpec declares one reported number. bound is the share of the
// parent's median by which an end-to-end metric may worsen; layer, src
// and moves annotate per-layer rows: src is W (counter read around a
// workload run), M (micro-measurement of the layer's public functions in
// isolation) or T (traced run), and moves is the prediction later
// changes are held to — the end-to-end metric @ workload the row should
// move.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	layer  string
	src    string
	moves  string
}

var endToEnd = []metricSpec{
	{name: "latency_us", unit: "us", better: "lower", bound: 0.25},
	{name: "tail_us", unit: "us", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

func layerRows(layer, src, moves, better string, rows ...[2]string) []metricSpec {
	out := make([]metricSpec, len(rows))
	for i, r := range rows {
		out[i] = metricSpec{name: layer + "." + r[0], unit: r[1], better: better, layer: layer, src: src, moves: moves}
	}
	return out
}

func opRows(prefix, unit string) [][2]string {
	var rows [][2]string
	for _, k := range allOps {
		rows = append(rows, [2]string{prefix + string(k), unit})
	}
	return rows
}

var perLayer = concat(
	layerRows("sim", "M", "sim.host_s_per_pass @ sim_scale_n256; proc_handoff -> sim.host_s_per_pass and setup_s @ sim_paper_n8; nothing @ udp_*", "lower",
		[2]string{"engine_ns_per_event", "ns"}, [2]string{"engine_allocs_per_event", "count"},
		[2]string{"proc_handoff_ns", "ns"}, [2]string{"queue_ns_per_op", "ns"}),
	layerRows("sim", "W", "host_s_per_pass @ every sim_* (events_per_op repeats exactly); host time, oracle excluded", "lower",
		[2]string{"events_per_op", "count"}, [2]string{"host_s_per_pass", "s"}),
	layerRows("sim", "W", "raw host events per second, not calibration-normalised: host_s_per_pass @ sim_scale_n256", "higher",
		[2]string{"host_events_per_s", "1/s"}),
	layerRows("ethernet", "M", "sim.host_s_per_pass @ sim_scale_n256; hub -> sim.host_s_per_pass and setup_s @ sim_paper_n8", "lower",
		[2]string{"switch_ns_per_frame_unicast", "ns"}, [2]string{"switch_ns_per_frame_mcast", "ns"},
		[2]string{"hub_ns_per_frame", "ns"}),
	layerRows("ethernet", "W", "latency_us @ sim_paper_n8 (hub rows) and sim_scale_n256 (queue rows); queue_drops must be 0", "lower",
		[2]string{"hub_collisions_per_op", "count"}, [2]string{"hub_deferrals_per_op", "count"},
		[2]string{"switch_max_queue_depth", "count"}, [2]string{"switch_pauses_per_op", "count"},
		[2]string{"switch_queue_drops", "count"}),
	layerRows("ipnet", "M", "sim.host_s_per_pass @ sim_scale_n256", "lower",
		[2]string{"ns_per_datagram", "ns"}, [2]string{"allocs_per_datagram", "count"}),
	layerRows("transport", "M", "latency_us and ops_per_s @ udp_large_n4; sim.host_s_per_pass @ sim_scale_n256; no change @ udp_small_n4", "lower",
		[2]string{"append_fragment_ns", "ns"}, [2]string{"decode_fragment_ns", "ns"},
		[2]string{"split_ns_per_frag", "ns"}, [2]string{"reassemble_ns_per_frag", "ns"},
		[2]string{"allocs_per_frag", "count"}),
	layerRows("reliab", "M", "latency_us @ udp_small_n4", "lower",
		[2]string{"admit_ack_ns_per_msg", "ns"}, [2]string{"recv_ns_per_frag", "ns"}, [2]string{"ctl_codec_ns", "ns"}),
	layerRows("reliab", "W", "stalls/probes -> tail_us and ops_per_s @ udp_small_n4; retransmits -> latency_us @ sim_loss_n32; stalls and retransmits 0 @ sim_paper_n8", "lower",
		[2]string{"window_stalls_per_op", "count"}, [2]string{"probes_per_op", "count"},
		[2]string{"acks_per_op", "count"}, [2]string{"retransmits_per_op", "count"},
		[2]string{"dup_fragments_per_op", "count"}),
	layerRows("reliab", "W", "latency_us @ sim_loss_n32", "lower",
		[2]string{"loss_slowdown", "ratio"}, [2]string{"repair_frames_per_loss", "count"}),
	layerRows("simnet", "M", "sim.host_s_per_pass and setup_s @ sim_paper_n8", "lower",
		[2]string{"p2p_host_ns_per_msg", "ns"}, [2]string{"p2p_events_per_msg", "count"},
		[2]string{"mcast_host_ns_per_frag", "ns"}),
	layerRows("simnet", "W", "new_us -> setup_s @ sim_*; the rest -> sim.host_s_per_pass @ sim_scale_n256", "lower",
		[2]string{"new_us", "us"}, [2]string{"allocs_per_event", "count"},
		[2]string{"heap_peak_mb", "MiB"}, [2]string{"injected_losses", "count"}),
	layerRows("udpnet", "M", "pingpong -> latency_us @ udp_small_n4", "lower",
		[2]string{"pingpong_us", "us"}, [2]string{"mcast_fanout_us", "us"}),
	layerRows("udpnet", "M", "ops_per_s @ udp_large_n4", "higher",
		[2]string{"stream_mbps", "Mbit/s"}),
	layerRows("udpnet", "W", "new_ms -> setup_s @ udp_*; the rest -> ops_per_s and latency_us @ both udp_*; nothing @ sim_*", "lower",
		[2]string{"new_ms", "ms"}, [2]string{"datagrams_per_op", "count"}, [2]string{"own_mcast_filtered_per_op", "count"},
		[2]string{"bad_packets", "count"}, [2]string{"allocs_per_op", "count"},
		[2]string{"alloc_bytes_per_op", "B"}, [2]string{"heap_peak_mb", "MiB"}),
	layerRows("udpnet", "W", "ops_per_s @ udp_* (sendto calls per wall second)", "higher",
		[2]string{"datagrams_per_s", "1/s"}),
	layerRows("mpi", "W", "setup_s @ every workload", "lower",
		[2]string{"world_setup_us", "us"}),
	layerRows("mpi", "M", "latency_us @ udp_small_n4; sim.host_s_per_pass and setup_s @ sim_paper_n8", "lower",
		[2]string{"mem_p2p_ns_per_msg", "ns"},
		[2]string{"mem_p2p_allocs_per_msg", "count"}, [2]string{"mem_coll_ns_per_op", "ns"},
		[2]string{"mem_coll_allocs_per_op", "count"}),
	layerRows("core", "W", "latency_us and ops_per_s @ every sim_* (the counts repeat exactly)", "lower",
		[2]string{"scout_frames_per_op", "count"}, [2]string{"data_frames_per_op", "count"},
		[2]string{"ctl_frames_per_op", "count"}),
	layerRows("core", "W", "latency_us @ sim_paper_n8 (mcast_over_mpich is the paper's headline)", "lower",
		[2]string{"sim_us.hub.mcast-linear", "us"}, [2]string{"sim_us.hub.mcast-binary", "us"},
		[2]string{"sim_us.switch.mcast-linear", "us"}, [2]string{"sim_us.switch.mcast-binary", "us"},
		[2]string{"mcast_over_mpich.hub", "ratio"}, [2]string{"mcast_over_mpich.switch", "ratio"}),
	layerRows("core", "W", "latency_us @ sim_scale_n256", "lower",
		[2]string{"sim_us.allgather.mcast-binary", "us"}, [2]string{"sim_us.allgather.mcast-2level", "us"},
		[2]string{"sim_us.allreduce.mcast-binary", "us"}, [2]string{"sim_us.allreduce.mcast-2level", "us"},
		[2]string{"sim_us.allreduce.mcast-chunked", "us"}, [2]string{"sim_us.scatter.mcast-2level", "us"},
		[2]string{"sim_us.alltoall.mcast-2level", "us"}),
	layerRows("core", "W", "latency_us @ sim_loss_n32", "lower",
		[2]string{"sim_us.bcast", "us"}, [2]string{"sim_us.allgather", "us"}, [2]string{"sim_us.allreduce", "us"}),
	layerRows("core", "W", "latency_us @ the same udp_* workload (says which op moved)", "lower", opRows("udp_p50_us.", "us")...),
	layerRows("core", "W", "tail_us @ the same udp_* workload (says which op moved)", "lower", opRows("udp_tail_us.", "us")...),
	layerRows("core", "T", "scout/release shares -> latency_us @ udp_small_n4; data shares -> latency_us @ udp_large_n4", "lower",
		[2]string{"phase_share.scout-gather", "ratio"}, [2]string{"phase_share.data-mcast", "ratio"},
		[2]string{"phase_share.release", "ratio"}, [2]string{"phase_share.round-gather", "ratio"},
		[2]string{"phase_share.round-data", "ratio"}, [2]string{"phase_share.round-consume", "ratio"}),
	layerRows("baseline", "W", "reference rows: nothing should move when only core changes", "lower",
		[2]string{"sim_us.hub", "us"}, [2]string{"sim_us.switch", "us"}, [2]string{"udp_p50_us", "us"}),
	layerRows("baseline", "W", "reference row for ops_per_s @ udp_*", "higher",
		[2]string{"udp_ops_per_s", "1/s"}),
	layerRows("topo", "M", "setup_s @ sim_scale_n256", "lower",
		[2]string{"uniform_project_us", "us"}),
	layerRows("trace", "M", "none with observers off (end-to-end runs never attach them)", "lower",
		[2]string{"enabled_ns_per_event", "ns"}, [2]string{"enabled_allocs_per_event", "count"}),
	layerRows("trace", "T", "none: the cost of switching the observers on", "lower",
		[2]string{"events_per_op", "count"}, [2]string{"overhead_ratio", "ratio"}),
	layerRows("metrics", "M", "none with observers off", "lower",
		[2]string{"enabled_ns_per_observe", "ns"}),
	layerRows("metrics", "T", "none: cardinality of the registry when switched on", "lower",
		[2]string{"series_count", "count"}),
)

// printLedger renders the per-layer ledger as the markdown table of
// README.md, one row per (layer, source, prediction) group.
func printLedger() {
	fmt.Println("| layer | metrics | src | should move |")
	fmt.Println("|---|---|---|---|")
	for i := 0; i < len(perLayer); {
		g := perLayer[i]
		var names []string
		for ; i < len(perLayer) && perLayer[i].layer == g.layer && perLayer[i].src == g.src && perLayer[i].moves == g.moves; i++ {
			names = append(names, fmt.Sprintf("`%s` (%s)", perLayer[i].name, perLayer[i].unit))
		}
		fmt.Printf("| `%s` | %s | %s | %s |\n", g.layer, strings.Join(names, ", "), g.src, g.moves)
	}
}

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
