package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/ethernet"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/reliab"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// simPoint is one grid point of a simulated workload: a collective of
// one size under one algorithm set on one modelled fabric.
type simPoint struct {
	label   string // "<fabric>.<algorithm>.<op>-<bytes>[.loss]"
	topo    simnet.Topology
	procs   int
	alg     bench.Algorithm
	kind    opKind
	size    int
	warmups int     // untimed calls before the measured one, then a separating barrier
	fanout  int     // stations per switch port under SwitchShared
	loss    float64 // LossRate and P2PLossRate
	reps    int     // simulations per pass, one seed each
	observe bool    // attach trace.Recorder/metrics.Registry in the traced run
	// skew staggers each rank's entry into the measured call uniformly in
	// [0, skew), drawn from the seed (maxSkew everywhere but in the
	// BENCH_sim.json check).
	skew sim.Duration
}

// maxSkew is the per-rank entry stagger of the paper's methodology
// (bench.DefaultScenario): each rank enters the measured call up to
// 15 simulated µs late, drawn from the seed.
const maxSkew = 15 * sim.Microsecond

// simTotals is what one simulation — or, summed, one pass — costs the
// host and reads from the counters the layers export.
type simTotals struct {
	hostNS  int64 // whole simulation, oracle work excluded
	setupNS int64 // simnet.New + mpi.World + warm-up, until the first rank enters the measured call
	newNS   int64 // simnet.New alone
	worldNS int64 // mpi.NewRuntime + mpi.World, summed over ranks

	events               uint64
	scout, data, control int64 // frames on the wire by class (control: ack+nack+control+stream)
	hub                  ethernet.HubStats
	sw                   ethernet.SwitchStats // MaxQueueDepth is a maximum, the rest sums
	stream               reliab.Stats
	losses               int64 // injected multicast + point-to-point losses

	// Traced runs only.
	traceEvents int
	series      int                // metrics registry cardinality (maximum over simulations)
	phaseUS     map[string]float64 // trace.Summarize totals by span name
	opSpanUS    float64            // summed duration of the benchmark's own op spans
}

func (t *simTotals) add(o simTotals) {
	t.hostNS += o.hostNS
	t.setupNS += o.setupNS
	t.newNS += o.newNS
	t.worldNS += o.worldNS
	t.events += o.events
	t.scout += o.scout
	t.data += o.data
	t.control += o.control
	t.hub.Collisions += o.hub.Collisions
	t.hub.Deferrals += o.hub.Deferrals
	t.sw.PauseEvents += o.sw.PauseEvents
	t.sw.QueueDrops += o.sw.QueueDrops
	t.sw.MaxQueueDepth = max(t.sw.MaxQueueDepth, o.sw.MaxQueueDepth)
	t.stream.WindowStalls += o.stream.WindowStalls
	t.stream.ProbesSent += o.stream.ProbesSent
	t.stream.AcksSent += o.stream.AcksSent
	t.stream.Retransmits += o.stream.Retransmits
	t.stream.DupFragments += o.stream.DupFragments
	t.losses += o.losses
	t.traceEvents += o.traceEvents
	t.series = max(t.series, o.series)
	for name, us := range o.phaseUS {
		if t.phaseUS == nil {
			t.phaseUS = map[string]float64{}
		}
		t.phaseUS[name] += us
	}
	t.opSpanUS += o.opSpanUS
}

// simRun is what one simulated measurement yields.
type simRun struct {
	simUS  float64 // longest rank's call duration, simulated µs
	failed bool    // rank error, oracle mismatch or barrier violation
	err    error
	simTotals
}

// runSim builds one simulated world, runs warm-ups and one measured
// collective with seeded payloads and entry skew, verifies every result
// on every rank, and reads the counters the layers export. A non-nil tr
// makes it a traced run: tr receives the benchmark's spans (world
// numbers them, parent is the workload span) and the repo's flight
// recorder and metrics registry are attached.
func runSim(pt simPoint, algs mpi.Algorithms, seed uint64, mem *arena, tr *tracer, world, parent int) simRun {
	var res simRun
	observe := tr != nil
	prof := simnet.DefaultProfile()
	prof.Seed = seed
	prof.UplinkFanout = pt.fanout
	prof.LossRate, prof.P2PLossRate = pt.loss, pt.loss
	var rec *trace.Recorder
	var reg *metrics.Registry
	if observe {
		rec, reg = trace.NewRecorder(), metrics.NewRegistry()
		prof.Trace, prof.Metrics = rec, reg
	}
	skewRng := sim.NewRand(seed ^ 0xD1CE)
	skews := make([]sim.Duration, pt.procs)
	for i := range skews {
		skews[i] = skewRng.Duration(pt.skew)
	}
	key := mix(seed, 0xBE7C)

	// Rank programs run one at a time under the engine, so these plain
	// variables are handed from proc to proc, never shared concurrently.
	var (
		oracle   time.Duration
		firstOp  time.Time
		starts   = make([]int64, pt.procs)
		ends     = make([]int64, pt.procs)
		mismatch bool
	)
	timedOracle := func(f func()) {
		t := time.Now()
		f()
		oracle += time.Since(t)
	}

	mem.reset()
	t0 := time.Now()
	setupID := tr.reserve("setup", parent, "host", 0)
	nw := simnet.New(pt.procs, pt.topo, prof)
	res.newNS = time.Since(t0).Nanoseconds()
	tr.add(span{Parent: setupID, Name: "simnet.New", World: world, Rank: -1, Clock: "host", End: res.newNS})

	fns := make([]func(ep *simnet.Endpoint) error, pt.procs)
	for i := range fns {
		fns[i] = func(ep *simnet.Endpoint) error {
			tw := time.Now()
			c, err := mpi.World(mpi.NewRuntime(ep), algs)
			res.worldNS += time.Since(tw).Nanoseconds()
			tr.add(span{Parent: setupID, Name: "mpi.World", World: world, Rank: ep.Rank(), Clock: "host",
				Start: tw.Sub(t0).Nanoseconds(), End: time.Since(t0).Nanoseconds()})
			if err != nil {
				return fmt.Errorf("world setup: %w", err)
			}
			me := c.Rank()
			var col, sep *collective
			timedOracle(func() {
				col = newCollective(c, pt.kind, pt.size, 0, key, false, mem)
				sep = newCollective(c, opBarrier, 0, 0, key, false, mem)
			})
			// timed wraps one collective call in a span on the sim clock.
			timed := func(o *collective, iter uint64, name string, opID, parent int) (s, e int64, err error) {
				timedOracle(func() { o.prepare(iter) })
				s = c.Now()
				err = o.call()
				e = c.Now()
				tr.add(span{Parent: parent, Name: name, World: world, Rank: me, OpID: opID, Clock: "sim", Start: s, End: e})
				if observe {
					res.opSpanUS += float64(e-s) / 1e3
				}
				if err == nil {
					timedOracle(func() {
						if !o.verify(iter) {
							mismatch = true
						}
					})
				}
				return s, e, err
			}
			for w := 0; w < pt.warmups; w++ {
				if _, _, err := timed(col, uint64(w), "warmup."+string(pt.kind), w+1, setupID); err != nil {
					return err
				}
			}
			if pt.warmups > 0 {
				// Separate the measured call from warm-up traffic still
				// in flight (bench.Run's methodology).
				if _, _, err := timed(sep, 0, "warmup.barrier", pt.warmups+1, setupID); err != nil {
					return err
				}
			}
			ep.Proc().Sleep(skews[me])
			if firstOp.IsZero() {
				firstOp = time.Now()
			}
			s, e, err := timed(col, uint64(pt.warmups), "op."+string(pt.kind), pt.warmups+2, parent)
			starts[me], ends[me] = s, e
			return err
		}
	}
	res.err = nw.Run(fns)
	total := time.Since(t0)
	res.hostNS = (total - oracle).Nanoseconds()
	if firstOp.IsZero() {
		firstOp = t0.Add(total)
	}
	res.setupNS = firstOp.Sub(t0).Nanoseconds()
	tr.close(setupID, res.setupNS)

	var worst int64
	for r := range starts {
		if d := ends[r] - starts[r]; d > worst {
			worst = d
		}
	}
	res.simUS = float64(worst) / 1e3
	res.failed = res.err != nil || mismatch ||
		(pt.kind == opBarrier && !barrierHolds(starts, ends))

	res.events = nw.Events()
	res.scout = nw.Wire.Frames(transport.ClassScout)
	res.data = nw.Wire.Frames(transport.ClassData)
	res.control = nw.Wire.TotalFrames() - res.scout - res.data
	res.hub, res.sw = nw.HubStats(), nw.SwitchStats()
	res.stream = nw.Stats.Stream.Snapshot()
	res.losses = nw.Stats.InjectedLosses + nw.Stats.InjectedP2PLosses
	if observe {
		res.traceEvents = rec.Len()
		snap := reg.Snapshot()
		res.series = len(snap.Counters) + len(snap.Gauges) + len(snap.Meters) + len(snap.Histograms)
		res.phaseUS = map[string]float64{}
		for _, p := range trace.Summarize(rec).Phases {
			res.phaseUS[p.Name] = p.TotalUS
		}
	}
	return res
}

// simWorkload is a grid of points measured pass after pass.
type simWorkload struct {
	name   string
	points []simPoint
}

// pointStat holds one grid point's deterministic results from a pass.
type pointStat struct {
	simUS  []float64 // one per rep
	events uint64
	scout  int64
	frames int64 // every class
	losses int64
}

// simPass aggregates one whole pass over the grid.
type simPass struct {
	sims, failed int
	points       []pointStat
	simTotals
}

// repSeed derives the seed of one simulation from the run seed, so that
// every (point, rep) has its own backoff, loss and skew draws.
func repSeed(seed uint64, point, rep int) uint64 {
	return mix(mix(seed, uint64(point)), uint64(rep))
}

// runPass simulates every (point, rep) of the grid once, or only the
// points marked observe. With a tracer the pass records the benchmark's
// spans and attaches the repo's recorder and registry.
func (w simWorkload) runPass(seed uint64, tr *tracer, observedOnly bool) (simPass, error) {
	p := simPass{points: make([]pointStat, len(w.points))}
	root := tr.reserve("workload", 0, "host", 0)
	t0 := time.Now()
	world := 0
	mem := new(arena)
	for i, pt := range w.points {
		algs, err := bench.Set(pt.alg)
		if err != nil {
			return p, err
		}
		if observedOnly && !pt.observe {
			continue
		}
		// Every grid point starts from the same heap: collected and
		// returned to the OS, as testing.B collects before each run.
		// Without it a world's page-fault cost depended on what the
		// previous one left behind (0.3 to 1.9 s of system time for
		// the same N=256 alltoall).
		debug.FreeOSMemory()
		for rep := 0; rep < pt.reps; rep++ {
			world++
			simSeed := repSeed(seed, i, rep)
			r := runSim(pt, algs, simSeed, mem, tr, world, root)
			p.sims++
			if r.failed {
				p.failed++
				why := "result failed the oracle"
				if r.err != nil {
					why = r.err.Error()
				}
				fmt.Printf("# %s %s seed %d: %s\n", w.name, pt.label, simSeed, why)
			}
			ps := &p.points[i]
			ps.simUS = append(ps.simUS, r.simUS)
			ps.events += r.events
			ps.scout += r.scout
			ps.frames += r.scout + r.data + r.control
			ps.losses += r.losses
			p.add(r.simTotals)
		}
	}
	tr.close(root, time.Since(t0).Nanoseconds())
	return p, nil
}

// sameTimeline reports whether two passes produced identical simulated
// results on every point both of them ran — the simulator is
// deterministic for a seed, so any difference is a correctness failure,
// not noise.
func sameTimeline(a, b simPass) bool {
	for i := range a.points {
		pa, pb := a.points[i], b.points[i]
		if len(pa.simUS) == 0 || len(pb.simUS) == 0 {
			continue
		}
		if pa.events != pb.events || pa.frames != pb.frames || pa.losses != pb.losses {
			return false
		}
		for j := range pa.simUS {
			if pa.simUS[j] != pb.simUS[j] {
				return false
			}
		}
	}
	return true
}

// heapSampler polls HeapInuse at 10 Hz until stopped and keeps the peak.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > h.peak.Load() {
				h.peak.Store(ms.HeapInuse)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}
