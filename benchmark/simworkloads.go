package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/simnet"
)

// simPaperN8 is the paper's own regime: 8 stations on the Fast Ethernet
// hub and switch, MPICH against both scout algorithms, every collective
// at sizes around one to four frames, 21 seeds per point.
func simPaperN8(quick bool) simWorkload {
	ops := []struct {
		kind opKind
		size int
	}{
		{opBcast, 1000}, {opBcast, 5000}, {opBarrier, 0}, {opAllreduce, 5000},
		{opAllgather, 1500}, {opScatter, 1000}, {opGather, 1000}, {opAlltoall, 1000},
	}
	reps := 21
	if quick {
		reps = 1
	}
	w := simWorkload{name: "sim_paper_n8"}
	for _, topo := range []simnet.Topology{simnet.Hub, simnet.Switch} {
		for _, alg := range []bench.Algorithm{bench.MPICH, bench.McastLinear, bench.McastBinary} {
			for _, op := range ops {
				w.points = append(w.points, simPoint{
					label: fmt.Sprintf("%s.%s.%s-%d", topo, alg, op.kind, op.size),
					topo:  topo, procs: 8, alg: alg, kind: op.kind, size: op.size,
					warmups: 2, reps: reps, observe: true, skew: maxSkew,
				})
			}
		}
	}
	return w
}

// simScaleN256 is the seven N=256 rows of the BENCH_sim.json grid on the
// shared-uplink switch (64 segments of 4): per-event simulator cost and
// the topology-aware paths. No warm-up and one rep per point, like
// bench.RunTrajectory; only the two cheap allreduce points carry the
// repo's recorder in the traced run, to bound memory.
func simScaleN256(quick bool) simWorkload {
	procs := 256
	if quick {
		procs = 16
	}
	grid := []struct {
		kind opKind
		alg  bench.Algorithm
	}{
		{opAllgather, bench.McastBinary}, {opAllgather, bench.McastTwoLevel},
		{opAllreduce, bench.McastBinary}, {opAllreduce, bench.McastTwoLevel},
		{opAllreduce, bench.McastChunked},
		{opScatter, bench.McastTwoLevel}, {opAlltoall, bench.McastTwoLevel},
	}
	w := simWorkload{name: "sim_scale_n256"}
	for _, g := range grid {
		w.points = append(w.points, simPoint{
			label: fmt.Sprintf("%s.%s", g.kind, g.alg),
			topo:  simnet.SwitchShared, procs: procs, alg: g.alg, kind: g.kind, size: 2000,
			fanout: 4, reps: 1, skew: maxSkew,
			observe: g.kind == opAllreduce && g.alg != bench.McastChunked,
		})
	}
	return w
}

// simLossN32 runs the NACK-repaired suite at 1 % multicast and
// point-to-point loss beside the same grid lossless: the repair path of
// the layers the other workloads only use on their happy path. A lossy
// bcast or allreduce takes 15 ms or a multiple of the 25 ms probe
// timeout more, depending on what the seed drops, so those two points
// get 30 seeds each and report the mean (a median would jump between
// the modes); the allgather costs 0.4 host seconds per seed and varies
// by only 10 %, so it gets 8.
func simLossN32(quick bool) simWorkload {
	ops := []struct {
		kind opKind
		size int
		reps int
	}{{opBcast, 20000, 30}, {opAllgather, 5000, 8}, {opAllreduce, 5000, 30}}
	w := simWorkload{name: "sim_loss_n32"}
	for _, loss := range []float64{0.01, 0} {
		for _, op := range ops {
			pt := simPoint{
				label: fmt.Sprintf("%s-%d", op.kind, op.size),
				topo:  simnet.Switch, procs: 32, alg: bench.McastResilient, kind: op.kind, size: op.size,
				warmups: 2, loss: loss, reps: op.reps, observe: true, skew: maxSkew,
			}
			if quick {
				pt.procs, pt.reps = 8, 2
			}
			if loss == 0 {
				pt.label += ".lossless"
				pt.reps = 1
			}
			w.points = append(w.points, pt)
		}
	}
	return w
}

// endToEnd reports what a caller of the collectives sees on the modelled
// testbed — latency and throughput on the simulated clock, deterministic
// for a seed — and the host time set-up takes. Whole passes repeat until
// another would overrun the window (always at least one): they give
// setup_s its median and check that every pass simulates the same
// timeline. What the simulator itself costs the host is a per-layer row
// (sim.host_s_per_pass, sim.host_events_per_s), not an end-to-end one:
// on a shared 2-core host it moved by more than a quarter between runs
// of the same code.
func (w simWorkload) endToEnd(o options) (result, error) {
	seed, window := o.seed, o.window
	res := newResult()
	var first simPass
	var setupS []float64
	start := time.Now()
	for pass := 0; ; pass++ {
		t := time.Now()
		p, err := w.runPass(seed, nil, false)
		if err != nil {
			return res, err
		}
		res.attempted += p.sims
		res.failed += p.failed
		if pass == 0 {
			first = p
		} else if !sameTimeline(first, p) {
			// Deterministic for a seed: a pass that disagrees with the
			// first is wrong, whatever the oracle said.
			res.failed += p.sims
			res.note("%s: pass %d simulated a different timeline than pass 0", w.name, pass)
		}
		setupS = append(setupS, float64(p.setupNS)/1e9)
		if time.Since(start)+time.Since(t) > window {
			break
		}
	}
	passes := len(setupS)
	if passes >= 3 {
		// The first pass runs on a cold heap and, on burstable hosts, a
		// CPU that is still boosted: it warms up, the rest are measured.
		setupS = setupS[1:]
	}
	typical, worst := w.latencies(first)
	simSeconds := 0.0
	for _, us := range typical {
		simSeconds += us / 1e6
	}
	res.set("latency_us", geomean(typical))
	res.set("tail_us", geomean(worst))
	res.set("ops_per_s", ratio(float64(len(typical)), simSeconds))
	res.set("setup_s", median(setupS))
	res.note("%s: %d passes of %d simulations, %d events per pass; latency_us, tail_us and ops_per_s on the simulated clock, setup_s in host time",
		w.name, passes, first.sims, first.events)
	return res, nil
}

// latencies returns each point's typical and worst-seed latency. The
// typical value is the median over seeds, as in the paper's figures —
// except on lossy points, whose distribution is a ladder of probe
// timeouts and is summarised by its mean. With at most 30 seeds per
// point no tail percentile has ten samples beyond it, so the tail is the
// worst seed.
func (w simWorkload) latencies(p simPass) (typical, worst []float64) {
	for i, ps := range p.points {
		if w.points[i].loss > 0 {
			typical = append(typical, mean(ps.simUS))
		} else {
			typical = append(typical, median(ps.simUS))
		}
		worst = append(worst, quantile(ps.simUS, 1))
	}
	return typical, worst
}

// layers produces the per-layer rows of a simulated workload: counters
// from one untraced pass, then one traced pass for the span-derived
// rows and the cost of tracing itself.
func (w simWorkload) layers(o options) (result, error) {
	seed := o.seed
	res := newResult()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	heap := startHeapSampler()
	p, err := w.runPass(seed, nil, false)
	peak := heap.peakMB()
	if err != nil {
		return res, err
	}
	runtime.ReadMemStats(&after)
	res.attempted += p.sims
	res.failed += p.failed

	sims := float64(p.sims)
	res.set("sim.events_per_op", float64(p.events)/sims)
	res.set("sim.host_events_per_s", ratio(float64(p.events), float64(p.hostNS)/1e9))
	res.set("sim.host_s_per_pass", float64(p.hostNS)/1e9)
	res.set("ethernet.hub_collisions_per_op", float64(p.hub.Collisions)/sims)
	res.set("ethernet.hub_deferrals_per_op", float64(p.hub.Deferrals)/sims)
	res.set("ethernet.switch_max_queue_depth", float64(p.sw.MaxQueueDepth))
	res.set("ethernet.switch_pauses_per_op", float64(p.sw.PauseEvents)/sims)
	res.set("ethernet.switch_queue_drops", float64(p.sw.QueueDrops))
	res.set("reliab.window_stalls_per_op", float64(p.stream.WindowStalls)/sims)
	res.set("reliab.probes_per_op", float64(p.stream.ProbesSent)/sims)
	res.set("reliab.acks_per_op", float64(p.stream.AcksSent)/sims)
	res.set("reliab.retransmits_per_op", float64(p.stream.Retransmits)/sims)
	res.set("reliab.dup_fragments_per_op", float64(p.stream.DupFragments)/sims)
	res.set("simnet.allocs_per_event", ratio(float64(after.Mallocs-before.Mallocs), float64(p.events)))
	res.set("simnet.heap_peak_mb", peak)
	res.set("simnet.injected_losses", float64(p.losses))
	res.set("simnet.new_us", float64(p.newNS)/1e3/sims)
	res.set("mpi.world_setup_us", float64(p.worldNS)/1e3/sims)
	res.set("core.scout_frames_per_op", float64(p.scout)/sims)
	res.set("core.data_frames_per_op", float64(p.data)/sims)
	res.set("core.ctl_frames_per_op", float64(p.control)/sims)
	w.latencyRows(p, &res)

	// Traced pass over the observed points: the benchmark's spans, plus
	// the repo's recorder and registry through Profile.Trace/Metrics. Its
	// cost is taken against an untraced pass over the same points, run
	// from the same collected heap.
	plain := p
	if w.hasUnobserved() {
		runtime.GC()
		if plain, err = w.runPass(seed, nil, true); err != nil {
			return res, err
		}
		res.attempted += plain.sims
		res.failed += plain.failed
	}
	tr := newTracer()
	runtime.GC()
	tp, err := w.runPass(seed, tr, true)
	if err != nil {
		return res, err
	}
	res.attempted += tp.sims
	res.failed += tp.failed
	if !sameTimeline(p, tp) || !sameTimeline(p, plain) {
		res.failed += tp.sims
		res.note("%s: the traced pass simulated a different timeline than the untraced one", w.name)
	}
	overhead := ratio(float64(tp.hostNS), float64(plain.hostNS))
	res.set("trace.overhead_ratio", overhead)
	res.set("trace.events_per_op", ratio(float64(tp.traceEvents), float64(tp.sims)))
	res.set("metrics.series_count", float64(tp.series))
	for _, phase := range phaseNames {
		res.set("core.phase_share."+phase, ratio(tp.phaseUS[phase], tp.opSpanUS))
	}
	tr.counts["simulations"] = float64(tp.sims)
	tr.counts["events"] = float64(tp.events)
	tr.counts["op_span_us"] = tp.opSpanUS
	path, err := tr.write(o.outDir, w.name, seed, tp.phaseUS)
	if err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	res.note("%s: %d spans written to %s (host time of the traced pass %.2fx the untraced one on the %d observed simulations)",
		w.name, len(tr.spans), path, overhead, tp.sims)
	return res, nil
}

func (w simWorkload) hasUnobserved() bool {
	for _, pt := range w.points {
		if !pt.observe {
			return true
		}
	}
	return false
}

// phaseNames are the protocol phase spans package core records.
var phaseNames = []string{"scout-gather", "data-mcast", "release", "round-gather", "round-data", "round-consume"}

// latencyRows breaks the workload's latency down into the per-layer
// rows that say which fabric, algorithm or op moved.
func (w simWorkload) latencyRows(p simPass, res *result) {
	med, _ := w.latencies(p)
	group := func(match func(pt simPoint) bool) float64 {
		var xs []float64
		for i, pt := range w.points {
			if match(pt) {
				xs = append(xs, med[i])
			}
		}
		return geomean(xs)
	}
	switch w.name {
	case "sim_paper_n8":
		for _, topo := range []simnet.Topology{simnet.Hub, simnet.Switch} {
			base := group(func(pt simPoint) bool { return pt.topo == topo && pt.alg == bench.MPICH })
			res.set("baseline.sim_us."+topo.String(), base)
			var mcast []float64
			for _, alg := range []bench.Algorithm{bench.McastLinear, bench.McastBinary} {
				us := group(func(pt simPoint) bool { return pt.topo == topo && pt.alg == alg })
				res.set(fmt.Sprintf("core.sim_us.%s.%s", topo, alg), us)
				mcast = append(mcast, us)
			}
			// The paper's headline: multicast over MPICH on matched
			// points (below 1 means multicast wins).
			res.set("core.mcast_over_mpich."+topo.String(), ratio(geomean(mcast), base))
		}
	case "sim_scale_n256":
		for i, pt := range w.points {
			res.set("core.sim_us."+pt.label, med[i])
		}
	case "sim_loss_n32":
		lossy := group(func(pt simPoint) bool { return pt.loss > 0 })
		lossless := group(func(pt simPoint) bool { return pt.loss == 0 })
		res.set("reliab.loss_slowdown", ratio(lossy, lossless))
		// Extra frames a lossy simulation puts on the wire per injected
		// loss, against the same point run lossless.
		var extra, losses float64
		for i, pt := range w.points {
			if pt.loss == 0 {
				continue
			}
			res.set("core.sim_us."+string(pt.kind), med[i])
			for j, clean := range w.points {
				if clean.loss == 0 && clean.kind == pt.kind && clean.size == pt.size {
					extra += float64(p.points[i].frames)/float64(pt.reps) - float64(p.points[j].frames)/float64(clean.reps)
				}
			}
			losses += float64(p.points[i].losses) / float64(pt.reps)
		}
		res.set("reliab.repair_frames_per_loss", ratio(extra, losses))
	}
}
