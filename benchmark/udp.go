package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/udpnet"
)

// udpWorkload is a closed loop over real loopback UDP/IP-multicast
// sockets: four ranks (goroutines of this process) run the cycle of
// collectives back to back, each rank starting its next call as soon as
// its previous one returned.
type udpWorkload struct {
	name  string
	cycle []cycleOp
	warm  int // untimed warm-up cycles per world
}

type cycleOp struct {
	kind opKind
	size int
}

const (
	udpRanks = 4
	// blockCycles is how many cycles run between two looks at the clock.
	blockCycles = 10
	// opDeadline aborts a world in which no collective completed for
	// this long; the stuck collective counts as failed.
	opDeadline = 30 * time.Second
	// setupRepeats is how many worlds are built and warmed up per run so
	// that setup_s is a median, not a single reading.
	setupRepeats = 7
)

// udpSmallN4 runs all seven collectives at 64 B: per-message cost
// (syscalls, goroutine hand-offs, matching, the stream window)
// undiluted by payload.
func udpSmallN4() udpWorkload {
	w := udpWorkload{name: "udp_small_n4", warm: 10}
	for _, k := range allOps {
		w.cycle = append(w.cycle, cycleOp{k, 64})
	}
	return w
}

// udpLargeN4 moves 64 KiB per collective (47 fragments of 1400 B):
// per-byte and per-fragment cost.
func udpLargeN4() udpWorkload {
	return udpWorkload{name: "udp_large_n4", warm: 10, cycle: []cycleOp{
		{opBcast, 64 << 10}, {opAllreduce, 64 << 10}, {opAllgather, 16 << 10}, {opAlltoall, 16 << 10},
	}}
}

// udpRun is what one world's closed loop yields.
type udpRun struct {
	newNS, worldNS, setupNS int64 // udpnet.New, mpi.World (slowest rank), all set-up incl. warm-up
	ops                     int   // timed collectives completed by every rank
	failed                  int   // errors, deadline overruns, oracle mismatches (warm-up included)
	attempted               int   // timed + warm-up collectives
	windowNS                int64
	lat                     map[opKind][]float64 // longest rank's call duration per op, wall µs
	stats                   udpnet.Stats         // summed over endpoints, timed window only
	mallocs, allocBytes     uint64               // runtime.MemStats deltas over the timed window
	err                     error

	traceEvents, series int
	phaseUS             map[string]float64
	opSpanUS            float64
}

// observers bundles what a traced run attaches.
type observers struct {
	tr  *tracer
	rec *trace.Recorder
	reg *metrics.Registry
}

// run builds one world, warms it up, drives the timed closed loop for
// window (0: set-up and warm-up only) and closes the world.
func (w udpWorkload) run(alg bench.Algorithm, port int, seed uint64, window time.Duration, obs observers) udpRun {
	res := udpRun{lat: map[opKind][]float64{}}
	algs, err := bench.Set(alg)
	if err != nil {
		res.err = err
		return res
	}
	cfg := udpnet.DefaultConfig(udpRanks)
	cfg.McastPort = port
	cfg.LossSeed = int64(seed>>1) | 1
	cfg.Trace, cfg.Metrics = obs.rec, obs.reg
	tr := obs.tr

	root := tr.reserve("workload", 0, "wall", 0)
	setupID := tr.reserve("setup", root, "wall", 0)
	t0 := time.Now()
	nw, err := udpnet.New(cfg)
	if err != nil {
		res.err = fmt.Errorf("udpnet.New: %w", err)
		return res
	}
	defer nw.Close()
	res.newNS = time.Since(t0).Nanoseconds()
	tr.add(span{Parent: setupID, Name: "udpnet.New", Rank: -1, Clock: "wall", End: res.newNS})

	eps := make([]transport.Endpoint, udpRanks)
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	nOps := len(w.cycle)
	key := mix(seed, 0x0DD)
	var (
		worldReady [udpRanks]int64   // ns since t0 when the rank's mpi.World returned
		warmDone   [udpRanks]int64   // ns since t0 when the rank finished warm-up
		times      [udpRanks][]int64 // start,end pairs of timed ops, ns since t0
		bad        [udpRanks]int     // oracle mismatches
		progress   atomic.Int64      // collectives completed by rank 0
		stuck      atomic.Bool
		before     []udpnet.Stats
		memBefore  runtime.MemStats
		memAfter   runtime.MemStats
		winStart   time.Time
		spanMu     sync.Mutex
		warmOnce   sync.Once // the first rank out of mpi.World opens the warm-up span
		warmID     int
	)
	readStats := func() []udpnet.Stats {
		out := make([]udpnet.Stats, udpRanks)
		for i := range out {
			out[i] = nw.Endpoint(i).Stats()
		}
		return out
	}

	// Watchdog: a collective that never completes must end the run as a
	// failure, not hang the benchmark.
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		last, lastAt := int64(-1), time.Now()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
			}
			if p := progress.Load(); p != last {
				last, lastAt = p, time.Now()
			} else if time.Since(lastAt) > opDeadline {
				stuck.Store(true)
				nw.Close()
				return
			}
		}
	}()

	body := func(c *mpi.Comm) error {
		me := c.Rank()
		worldReady[me] = time.Since(t0).Nanoseconds()
		cols := make([]*collective, nOps)
		for k, op := range w.cycle {
			cols[k] = newCollective(c, op.kind, op.size, 0, key, true, nil)
		}
		iter := uint64(0)
		opID := 0
		// one runs the next collective of the cycle; timed ops are kept.
		one := func(k int, keep bool, parent int, prefix string) error {
			col := cols[k]
			col.prepare(iter)
			s := time.Since(t0).Nanoseconds()
			err := col.call()
			e := time.Since(t0).Nanoseconds()
			opID++
			if tr != nil {
				tr.add(span{Parent: parent, Name: prefix + string(col.kind), Rank: me, OpID: opID, Clock: "wall", Start: s, End: e})
				spanMu.Lock()
				res.opSpanUS += float64(e-s) / 1e3
				spanMu.Unlock()
			}
			if err != nil {
				return err
			}
			if !col.verify(iter) {
				bad[me]++
			}
			if keep {
				times[me] = append(times[me], s, e)
			}
			if me == 0 {
				progress.Add(1)
			}
			return nil
		}
		warmOnce.Do(func() { warmID = tr.reserve("warmup", setupID, "wall", worldReady[me]) })
		for i := 0; i < w.warm; i++ {
			for k := range cols {
				if err := one(k, false, warmID, "warmup."); err != nil {
					return err
				}
			}
			iter++
		}
		warmDone[me] = time.Since(t0).Nanoseconds()
		if window <= 0 {
			return nil
		}
		// Align the ranks, then read the counters the window is charged
		// with. Rank 0 reads them while the others wait in the barrier.
		if me == 0 {
			before = readStats()
			runtime.ReadMemStats(&memBefore)
			winStart = time.Now()
		}
		if err := baseline.Barrier(c); err != nil {
			return err
		}
		flag := make([]byte, 1)
		for {
			for cyc := 0; cyc < blockCycles; cyc++ {
				for k := range cols {
					if err := one(k, true, root, "op."); err != nil {
						return err
					}
				}
				iter++
			}
			// Rank 0 looks at the clock and tells the others, so run
			// length is fixed in seconds and the sample count grows as
			// the code gets faster. This bcast is never sampled.
			if me == 0 {
				flag[0] = 1
				if time.Since(winStart) >= window {
					flag[0] = 0
				}
			}
			if err := baseline.Bcast(c, flag, 0); err != nil {
				return err
			}
			if flag[0] == 0 {
				break
			}
		}
		if me == 0 {
			res.windowNS = time.Since(winStart).Nanoseconds()
			runtime.ReadMemStats(&memAfter)
			after := readStats()
			for i := range after {
				a, b := after[i], before[i]
				res.stats.DatagramsSent += a.DatagramsSent - b.DatagramsSent
				res.stats.DatagramsReceived += a.DatagramsReceived - b.DatagramsReceived
				res.stats.BadPackets += a.BadPackets - b.BadPackets
				res.stats.OwnMulticast += a.OwnMulticast - b.OwnMulticast
				res.stats.Stream.WindowStalls += a.Stream.WindowStalls - b.Stream.WindowStalls
				res.stats.Stream.ProbesSent += a.Stream.ProbesSent - b.Stream.ProbesSent
				res.stats.Stream.AcksSent += a.Stream.AcksSent - b.Stream.AcksSent
				res.stats.Stream.Retransmits += a.Stream.Retransmits - b.Stream.Retransmits
				res.stats.Stream.DupFragments += a.Stream.DupFragments - b.Stream.DupFragments
			}
		}
		return nil
	}
	res.err = mpi.RunEndpoints(eps, algs, func(c *mpi.Comm) error {
		err := body(c)
		if err != nil {
			// One rank's failure would leave its peers blocked in the
			// collective: closing the world errors them all out.
			nw.Close()
		}
		return err
	})
	close(stopWatch)
	<-watchDone
	if stuck.Load() {
		res.err = fmt.Errorf("no collective completed for %v: %w", opDeadline, res.err)
	}

	for r := 0; r < udpRanks; r++ {
		if worldReady[r]-res.newNS > res.worldNS {
			res.worldNS = worldReady[r] - res.newNS
		}
		if warmDone[r] > res.setupNS {
			res.setupNS = warmDone[r]
		}
		res.failed += bad[r]
	}
	tr.add(span{Parent: setupID, Name: "mpi.World", Rank: -1, Clock: "wall", Start: res.newNS, End: res.newNS + res.worldNS})
	tr.close(warmID, res.setupNS)
	tr.close(setupID, res.setupNS)
	tr.close(root, time.Since(t0).Nanoseconds())

	// An op counts once every rank completed it; its latency is the
	// longest call duration among the ranks (the paper's definition).
	res.ops = len(times[0]) / 2
	for r := 1; r < udpRanks; r++ {
		if n := len(times[r]) / 2; n < res.ops {
			res.ops = n
		}
	}
	starts, ends := make([]int64, udpRanks), make([]int64, udpRanks)
	for j := 0; j < res.ops; j++ {
		kind := w.cycle[j%nOps].kind
		var worst int64
		for r := 0; r < udpRanks; r++ {
			starts[r], ends[r] = times[r][2*j], times[r][2*j+1]
			if d := ends[r] - starts[r]; d > worst {
				worst = d
			}
		}
		if kind == opBarrier && !barrierHolds(starts, ends) {
			res.failed++
		}
		res.lat[kind] = append(res.lat[kind], float64(worst)/1e3)
	}
	res.attempted = res.ops + w.warm*nOps
	if res.err != nil {
		// The collective the error surfaced in was attempted and failed.
		res.attempted++
		res.failed++
	}
	res.mallocs = memAfter.Mallocs - memBefore.Mallocs
	res.allocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	if obs.rec != nil {
		res.traceEvents = obs.rec.Len()
		res.phaseUS = map[string]float64{}
		for _, p := range trace.Summarize(obs.rec).Phases {
			res.phaseUS[p.Name] = p.TotalUS
		}
	}
	if obs.reg != nil {
		snap := obs.reg.Snapshot()
		res.series = len(snap.Counters) + len(snap.Gauges) + len(snap.Meters) + len(snap.Histograms)
	}
	return res
}

// percentiles returns the geometric mean over the cycle's op kinds of
// each kind's median and of each kind's highest supported percentile —
// a plain median over a mixture of kinds would jump between modes.
func (w udpWorkload) percentiles(r udpRun) (p50, tail float64) {
	var meds, tails []float64
	for _, op := range w.cycle {
		xs := r.lat[op.kind]
		meds = append(meds, median(xs))
		tails = append(tails, quantile(xs, tailQuantile(len(xs))))
	}
	return geomean(meds), geomean(tails)
}

// waitGoroutines waits for the goroutine count to fall back to base
// after a world closed, and reports whether it did.
func waitGoroutines(base int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// unavailable is the result of a UDP workload on a host without working
// IP multicast: one attempted, one failed — never a silent skip.
func unavailable(name string, reason error) result {
	res := newResult()
	res.attempted, res.failed = 1, 1
	res.note("%s: cannot start: %v", name, reason)
	return res
}

// endToEnd builds and warms several worlds for the set-up median, then
// drives the last one for the timed window.
func (w udpWorkload) endToEnd(o options) (result, error) {
	if err := udpnet.Probe(); err != nil {
		return unavailable(w.name, err), nil
	}
	res := newResult()
	base := runtime.NumGoroutine()
	repeats := setupRepeats
	if o.quick {
		repeats = 1
	}
	var setups []float64
	var last udpRun
	for i := 0; i < repeats; i++ {
		win := time.Duration(0)
		if i == repeats-1 {
			win = o.window
		}
		last = w.run(bench.McastBinary, o.port, o.seed, win, observers{})
		res.attempted += last.attempted
		res.failed += last.failed
		if last.err != nil {
			res.note("%s: %v", w.name, last.err)
			break
		}
		setups = append(setups, float64(last.setupNS)/1e9)
		if !waitGoroutines(base) {
			res.note("%s: leak: %d goroutines outlived the closed world", w.name, runtime.NumGoroutine()-base)
		}
	}
	p50, tail := w.percentiles(last)
	res.set("latency_us", p50)
	res.set("tail_us", tail)
	res.set("ops_per_s", ratio(float64(last.ops), float64(last.windowNS)/1e9))
	res.set("setup_s", median(setups))
	res.note("%s: %d collectives in %.2f s over the host's loopback interface (real UDP/IP-multicast sockets, wall time), %d per op kind, tail = p%.3g",
		w.name, last.ops, float64(last.windowNS)/1e9, last.ops/len(w.cycle), 100*tailQuantile(last.ops/len(w.cycle)))
	return res, nil
}

// layers produces the per-layer rows of a UDP workload from three
// worlds sharing the window 3:1:1: the workload untraced (counters), the
// same cycle under MPICH (reference rows) and the workload traced.
func (w udpWorkload) layers(o options) (result, error) {
	if err := udpnet.Probe(); err != nil {
		return unavailable(w.name, err), nil
	}
	seed, window, port := o.seed, o.window, o.port
	res := newResult()
	base := runtime.NumGoroutine()
	account := func(r udpRun, what string) {
		res.attempted += r.attempted
		res.failed += r.failed
		if r.err != nil {
			res.note("%s (%s): %v", w.name, what, r.err)
		}
		if !waitGoroutines(base) {
			res.note("%s (%s): leak: %d goroutines outlived the closed world", w.name, what, runtime.NumGoroutine()-base)
		}
	}

	heap := startHeapSampler()
	plain := w.run(bench.McastBinary, port, seed, window*3/5, observers{})
	peak := heap.peakMB()
	account(plain, "untraced")
	ops := float64(plain.ops)
	res.set("udpnet.new_ms", float64(plain.newNS)/1e6)
	res.set("mpi.world_setup_us", float64(plain.worldNS)/1e3)
	res.set("udpnet.datagrams_per_op", ratio(float64(plain.stats.DatagramsSent), ops))
	res.set("udpnet.datagrams_per_s", ratio(float64(plain.stats.DatagramsSent), float64(plain.windowNS)/1e9))
	res.set("udpnet.own_mcast_filtered_per_op", ratio(float64(plain.stats.OwnMulticast), ops))
	res.set("udpnet.bad_packets", float64(plain.stats.BadPackets))
	res.set("udpnet.allocs_per_op", ratio(float64(plain.mallocs), ops))
	res.set("udpnet.alloc_bytes_per_op", ratio(float64(plain.allocBytes), ops))
	res.set("udpnet.heap_peak_mb", peak)
	res.set("reliab.window_stalls_per_op", ratio(float64(plain.stats.Stream.WindowStalls), ops))
	res.set("reliab.probes_per_op", ratio(float64(plain.stats.Stream.ProbesSent), ops))
	res.set("reliab.acks_per_op", ratio(float64(plain.stats.Stream.AcksSent), ops))
	res.set("reliab.retransmits_per_op", ratio(float64(plain.stats.Stream.Retransmits), ops))
	res.set("reliab.dup_fragments_per_op", ratio(float64(plain.stats.Stream.DupFragments), ops))
	for _, op := range w.cycle {
		xs := plain.lat[op.kind]
		res.set("core.udp_p50_us."+string(op.kind), median(xs))
		res.set("core.udp_tail_us."+string(op.kind), quantile(xs, tailQuantile(len(xs))))
	}

	ref := w.run(bench.MPICH, port, seed, window/5, observers{})
	account(ref, "mpich reference")
	refP50, _ := w.percentiles(ref)
	res.set("baseline.udp_p50_us", refP50)
	res.set("baseline.udp_ops_per_s", ratio(float64(ref.ops), float64(ref.windowNS)/1e9))

	obs := observers{tr: newTracer(), rec: trace.NewRecorder(), reg: metrics.NewRegistry()}
	traced := w.run(bench.McastBinary, port, seed, window/5, obs)
	account(traced, "traced")
	plainP50, _ := w.percentiles(plain)
	tracedP50, _ := w.percentiles(traced)
	res.set("trace.overhead_ratio", ratio(tracedP50, plainP50))
	res.set("trace.events_per_op", ratio(float64(traced.traceEvents), float64(traced.attempted)))
	res.set("metrics.series_count", float64(traced.series))
	for _, phase := range phaseNames {
		res.set("core.phase_share."+phase, ratio(traced.phaseUS[phase], traced.opSpanUS))
	}
	obs.tr.counts["collectives"] = float64(traced.attempted)
	obs.tr.counts["datagrams_sent"] = float64(traced.stats.DatagramsSent)
	obs.tr.counts["op_span_us"] = traced.opSpanUS
	path, err := obs.tr.write(o.outDir, w.name, seed, traced.phaseUS)
	if err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	res.note("%s: %d collectives untraced, %d under mpich, %d traced; %d spans written to %s; traffic crossed the host's loopback interface",
		w.name, plain.ops, ref.ops, traced.ops, len(obs.tr.spans), path)
	return res, nil
}
