// Command mpirun launches an MPI world over real UDP sockets with
// genuine IP multicast (all traffic through the kernel) and runs one of
// the built-in demo workloads, reporting wall-clock latencies measured
// exactly as the paper does: the longest completion time among all
// processes, median over repetitions.
//
// Usage:
//
//	mpirun -n 8 -workload bcast -algorithm mcast-binary -size 4000
//	mpirun -n 4 -workload barrier -algorithm mpich
//	mpirun -n 8 -workload allgather -algorithm mcast-binary -size 1500
//	mpirun -n 8 -workload allreduce -algorithm mcast-chunked -size 8000
//	mpirun -n 8 -workload alltoall -algorithm mcast-binary -size 1500
//	mpirun -n 8 -workload scatter -algorithm mcast-resilient -size 4000
//	mpirun -n 6 -workload pi
//	mpirun -n 8 -workload allreduce -p2ploss 0.05   # drop 5% of p2p frames;
//	                   # the reliable stream layer repairs them (stats printed)
//	mpirun -n 8 -workload bcast -algorithm mcast-resilient -size 20000 -loss 0.02
//	                   # drop 2% of multicast fragments at the receivers;
//	                   # the NACK-repaired set asks for them again
//	mpirun -n 8 -workload gather -algorithm mcast-2level -topo 4
//	                   # declare 4 ranks per fabric segment: the two-level
//	                   # collectives combine inside each segment and cross
//	                   # the segment boundary once per segment
//	mpirun -n 8 -workload alltoall -algorithm mcast-2level -topo 4
//	                   # two-level alltoall: one block per segment from
//	                   # every rank after N-1 scouts, instead of N-1
//	                   # slices (the flat burst, which it runs from
//	                   # 1,000 B at N <= 32)
//	mpirun -n 8 -workload scatter -algorithm mcast-2level -topo 4
//	mpirun -probe      # check whether IP multicast works here
//
// The workload and algorithm lists come from the registries in
// internal/workload and internal/bench, so every registered op and
// collective set is runnable over real UDP/IP multicast.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/udpnet"
	"repro/internal/workload"
)

// workloadNames lists every registered measurable op plus the demo apps.
func workloadNames() string {
	var names []string
	for _, op := range workload.Ops() {
		names = append(names, string(op))
	}
	names = append(names, "pi")
	return strings.Join(names, " | ")
}

// algorithmNames lists every registered collective algorithm set.
func algorithmNames() string {
	var names []string
	for _, a := range bench.Algorithms() {
		names = append(names, string(a))
	}
	return strings.Join(names, " | ")
}

func main() {
	var (
		n        = flag.Int("n", 4, "number of ranks")
		work     = flag.String("workload", "bcast", workloadNames())
		alg      = flag.String("algorithm", "mcast-binary", algorithmNames())
		size     = flag.Int("size", 1000, "message size in bytes (per-rank chunk for the rooted and all-to-all collectives)")
		reps     = flag.Int("reps", 20, "repetitions")
		port     = flag.Int("mcast-port", udpnet.DefaultMcastPort, "multicast UDP port")
		probe    = flag.Bool("probe", false, "probe multicast support and exit")
		p2ploss  = flag.Float64("p2ploss", 0, "inject receiver-side point-to-point loss probability (exercises the reliable stream layer; stats printed after the run)")
		loss     = flag.Float64("loss", 0, "inject receiver-side multicast fragment loss probability (exercises the NACK repair of the mcast-resilient sets; others hang on the first lost fragment)")
		topof    = flag.Int("topo", 0, "declare the fabric topology as ranks-per-segment (0: none); the topology-aware algorithms (mcast-2level) cluster communication by it")
		chaos    = flag.String("chaos", "", "inject a fault, e.g. kill:2@50ms — kill rank 2's endpoint 50ms into the run; failure detection is enabled, the per-rank outcome is dumped, and the exit status is nonzero")
		deadline = flag.Duration("deadline", 0, "abort a stuck run after this long with a per-rank progress dump and nonzero exit (0: wait forever)")
		traceOut = flag.String("trace", "", "record the per-rank protocol flight recorder (wall-clock timestamps) and write a Chrome/Perfetto trace plus a phase-latency summary to this path")
		metAddr  = flag.String("metrics", "", "serve the live telemetry plane on this address (e.g. 127.0.0.1:9464): /metrics Prometheus text, /metrics.json snapshot, /healthz liveness")
		metJSONL = flag.String("metrics-jsonl", "", "append one JSON metrics snapshot per interval to this file (plus a final snapshot at exit)")
		metEvery = flag.Duration("metrics-interval", time.Second, "interval between -metrics-jsonl snapshots")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpirun: %s is not a flag; mpirun takes no arguments (see -h)\n", flag.Arg(0))
		os.Exit(2)
	}

	// A world needs a rank and a median needs a repetition; a negative
	// size or segment fanout means nothing; a loss rate of 1 hangs the
	// run, and a negative one silently injects nothing.
	prob := "a probability in [0, 1)"
	for _, f := range []struct {
		name, want string
		v          float64
		ok         bool
	}{
		{"n", "1 or more", float64(*n), *n >= 1},
		{"size", "0 or more", float64(*size), *size >= 0},
		{"reps", "1 or more", float64(*reps), *reps >= 1},
		{"topo", "0 or more", float64(*topof), *topof >= 0},
		{"p2ploss", prob, *p2ploss, *p2ploss >= 0 && *p2ploss < 1},
		{"loss", prob, *loss, *loss >= 0 && *loss < 1},
	} {
		if !f.ok {
			fmt.Fprintf(os.Stderr, "mpirun: -%s %g is out of range; give %s\n", f.name, f.v, f.want)
			os.Exit(2)
		}
	}
	if *probe {
		path, err := udpnet.FindPath()
		if err != nil {
			fmt.Printf("IP multicast NOT available: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("IP multicast available on %v.\n", path)
		return
	}

	algs, err := bench.Set(bench.Algorithm(*alg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpirun: %v (known: %s)\n", err, algorithmNames())
		os.Exit(2)
	}
	if *alg != "mpich" {
		if err := udpnet.Probe(); err != nil {
			fmt.Fprintf(os.Stderr, "mpirun: %v\n(use -algorithm mpich, which needs no multicast)\n", err)
			os.Exit(1)
		}
	}

	cfg := udpnet.DefaultConfig(*n)
	cfg.McastPort = *port
	cfg.P2PLossRate = *p2ploss
	cfg.LossRate = *loss
	cfg.SegmentFanout = *topof
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder()
		cfg.Trace = rec
	}
	var tele *telemetry
	var stopJSONL func() error
	if *metAddr != "" || *metJSONL != "" {
		tele = &telemetry{reg: metrics.NewRegistry()}
		cfg.Metrics = tele.reg
		if *metAddr != "" {
			ln, lerr := net.Listen("tcp", *metAddr)
			if lerr != nil {
				fmt.Fprintf(os.Stderr, "mpirun: -metrics: %v\n", lerr)
				os.Exit(1)
			}
			fmt.Printf("metrics: http://%s/metrics\n", ln.Addr())
			go func() { _ = http.Serve(ln, metrics.Handler(tele.reg, tele.health)) }()
		}
		if *metJSONL != "" {
			var jerr error
			stopJSONL, jerr = startJSONL(tele.reg, *metJSONL, *metEvery)
			if jerr != nil {
				fmt.Fprintf(os.Stderr, "mpirun: -metrics-jsonl: %v\n", jerr)
				os.Exit(1)
			}
		}
	}
	kill, err := parseChaos(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpirun: %v\n", err)
		os.Exit(2)
	}
	if kill != nil && (kill.rank < 0 || kill.rank >= *n) {
		fmt.Fprintf(os.Stderr, "mpirun: -chaos kills rank %d in a world of %d\n", kill.rank, *n)
		os.Exit(2)
	}

	switch {
	case *work == "pi":
		if kill != nil {
			fmt.Fprintf(os.Stderr, "mpirun: -chaos applies to the latency workloads, not pi\n")
			os.Exit(2)
		}
		err = runPi(cfg, algs, *deadline)
	case isRegisteredOp(*work):
		err = runLatency(cfg, algs, *work, *size, *reps, kill, *deadline, tele)
	default:
		fmt.Fprintf(os.Stderr, "mpirun: unknown workload %q (known: %s)\n", *work, workloadNames())
		os.Exit(2)
	}
	if stopJSONL != nil {
		if jerr := stopJSONL(); jerr != nil && err == nil {
			err = fmt.Errorf("metrics jsonl: %w", jerr)
		}
	}
	if err == nil && rec != nil {
		err = writeTrace(*traceOut, *work, cfg.N, rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpirun: %v\n", err)
		os.Exit(1)
	}
}

// writeTrace exports the flight recorder of a finished run as a
// Chrome/Perfetto trace (one thread track per rank, wall-clock µs) and
// prints the phase-latency and critical-path summary.
func writeTrace(path, work string, n int, rec *trace.Recorder) error {
	var buf bytes.Buffer
	name := fmt.Sprintf("%s n=%d (udp)", work, n)
	if err := trace.WriteChromeTrace(&buf, trace.Run{Name: name, Rec: rec}); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %d events written to %s\n", rec.Len(), path)
	fmt.Print(trace.Summarize(rec).Format())
	return nil
}

// telemetry is the live metrics plane of one mpirun invocation: the
// registry every endpoint publishes into, plus the runtimes whose
// failure detectors back /healthz.
type telemetry struct {
	reg *metrics.Registry
	mu  sync.Mutex
	rts []*mpi.Runtime
}

// register adds a rank's runtime to the health aggregation. Nil-safe so
// the instrumented run path needs no telemetry check.
func (t *telemetry) register(rt *mpi.Runtime) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rts = append(t.rts, rt)
	t.mu.Unlock()
}

// health backs /healthz: 200 before the ranks are up ("starting"), 200
// while every registered runtime's failure detector is quiet, 503
// listing the dead ranks once any detector has declared one.
func (t *telemetry) health() (bool, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.rts) == 0 {
		return true, "starting"
	}
	seen := make(map[int]bool)
	var dead []int
	for _, rt := range t.rts {
		for _, r := range rt.DeadRanks() {
			if !seen[r] {
				seen[r] = true
				dead = append(dead, r)
			}
		}
	}
	if len(dead) == 0 {
		return true, "ok"
	}
	sort.Ints(dead)
	return false, fmt.Sprintf("dead ranks: %v", dead)
}

// dumpStreamStates appends the state of every send stream to a -deadline
// abort dump: what it is waiting for (unacknowledged messages, a window
// probe out for credit), on what clock (the current probe timeout:
// measured, backed off) and whether its endpoint has seen the network
// lose frames and is confirming what it sends, so "rank 2 waits on window
// credit from rank 0" can be read off the dump.
func dumpStreamStates(w io.Writer, nw *udpnet.Net) {
	for r := 0; r < nw.Size(); r++ {
		for _, st := range nw.Endpoint(r).Streams() {
			waiting := ""
			if st.Soliciting {
				waiting = ", window probe outstanding"
			}
			if st.Confirming > 0 {
				waiting += fmt.Sprintf(", confirming, %d left", st.Confirming)
			}
			fmt.Fprintf(w, "  stream %d->%d: %d in flight, RTO %v%s\n", r, st.Peer, st.InFlight, time.Duration(st.RTO), waiting)
		}
	}
}

// dumpStreams appends the per-stream observables (the mcast_stream_*
// families: smoothed RTT, gradient, queue delay, window occupancy,
// retransmit totals) to a -deadline abort dump, so a stuck run shows
// which stream stalled, not just which rank.
func (t *telemetry) dumpStreams(w io.Writer) {
	if t == nil {
		return
	}
	s := t.reg.Snapshot()
	var names []string
	for name := range s.Gauges {
		if strings.HasPrefix(name, "mcast_stream_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s = %g\n", name, s.Gauges[name])
	}
	names = names[:0]
	for name := range s.Meters {
		if strings.HasPrefix(name, "mcast_stream_") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.Meters[name]
		fmt.Fprintf(w, "  %s = %d total (%.1f/s)\n", name, m.Total, m.Rate)
	}
}

// startJSONL appends one JSON-encoded metrics snapshot per interval to
// path. The returned stop function writes a final snapshot, closes the
// file, and reports any write error.
func startJSONL(reg *metrics.Registry, path string, interval time.Duration) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		enc := json.NewEncoder(f)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := enc.Encode(reg.Snapshot()); err != nil {
					finished <- err
					<-done
					return
				}
			case <-done:
				err := enc.Encode(reg.Snapshot())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				finished <- err
				return
			}
		}
	}()
	return func() error { close(done); return <-finished }, nil
}

// chaosKill is a parsed -chaos directive: kill one rank's endpoint a
// fixed wall-clock delay into the run.
type chaosKill struct {
	rank int
	at   time.Duration
}

// parseChaos parses the -chaos flag ("" means none). The only directive
// is kill:RANK@DURATION, mirroring the simulator harness's event-time
// kills with a wall-clock offset.
func parseChaos(spec string) (*chaosKill, error) {
	if spec == "" {
		return nil, nil
	}
	rest, ok := strings.CutPrefix(spec, "kill:")
	if !ok {
		return nil, fmt.Errorf("bad -chaos %q: want kill:RANK@DURATION (e.g. kill:2@50ms)", spec)
	}
	rankStr, atStr, ok := strings.Cut(rest, "@")
	if !ok {
		return nil, fmt.Errorf("bad -chaos %q: want kill:RANK@DURATION (e.g. kill:2@50ms)", spec)
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil {
		return nil, fmt.Errorf("bad -chaos rank %q: %v", rankStr, err)
	}
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return nil, fmt.Errorf("bad -chaos delay %q: %v", atStr, err)
	}
	return &chaosKill{rank: rank, at: at}, nil
}

// watchdog runs run, but if it has not returned within deadline it
// prints dump and exits nonzero. deadline 0 just runs.
func watchdog(deadline time.Duration, dump func(), run func() error) error {
	if deadline <= 0 {
		return run()
	}
	errc := make(chan error, 1)
	go func() { errc <- run() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(deadline):
		fmt.Fprintf(os.Stderr, "mpirun: stuck — deadline %v exceeded\n", deadline)
		dump()
		os.Exit(1)
		panic("unreachable")
	}
}

func isRegisteredOp(name string) bool {
	for _, op := range workload.Ops() {
		if string(op) == name {
			return true
		}
	}
	return false
}

func runLatency(cfg udpnet.Config, algs mpi.Algorithms, work string, size, reps int, kill *chaosKill, deadline time.Duration, tele *telemetry) error {
	samples := make([]float64, reps) // µs, max across ranks per rep
	nw, err := udpnet.New(cfg)
	if err != nil {
		return err
	}
	defer nw.Close()
	if kill != nil {
		timer := time.AfterFunc(kill.at, func() { nw.KillRank(kill.rank) })
		defer timer.Stop()
	}

	// progress[r] counts rank r's completed measured repetitions (-1:
	// still warming up); the deadline dump reads it.
	progress := make([]atomic.Int64, cfg.N)
	for i := range progress {
		progress[i].Store(-1)
	}
	errs := make([]error, cfg.N)
	body := func(rank int, c *mpi.Comm) error {
		op := workload.Make(c, workload.Op(work), size, 0)
		for w := 0; w < 3; w++ { // warmup
			if err := op(); err != nil {
				return err
			}
		}
		progress[rank].Store(0)
		for r := 0; r < reps; r++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			start := c.Now()
			if err := op(); err != nil {
				return err
			}
			lat := float64(c.Now()-start) / 1000.0
			// Longest completion among processes: rank 0 aggregates.
			out := mpi.Float64sToBytes([]float64{lat})
			agg := make([]byte, len(out))
			if err := c.Reduce(out, agg, mpi.Float64, mpi.OpMax, 0); err != nil {
				return err
			}
			if c.Rank() == 0 {
				samples[r] = mpi.BytesToFloat64s(agg)[0]
			}
			progress[rank].Store(int64(r) + 1)
		}
		return nil
	}
	dump := func() {
		for r := 0; r < cfg.N; r++ {
			switch done := progress[r].Load(); {
			case done < 0:
				fmt.Fprintf(os.Stderr, "  rank %d: warming up\n", r)
			default:
				fmt.Fprintf(os.Stderr, "  rank %d: %d/%d reps\n", r, done, reps)
			}
		}
		dumpStreamStates(os.Stderr, nw)
		tele.dumpStreams(os.Stderr)
	}

	err = watchdog(deadline, dump, func() error {
		var wg sync.WaitGroup
		for i := 0; i < cfg.N; i++ {
			rank := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := mpi.NewRuntime(nw.Endpoint(rank))
				tele.register(rt)
				if kill != nil {
					// Generous wall-clock budgets: a loaded host must not
					// suspect a merely descheduled rank.
					opts := mpi.FailureOptions{
						Suspicion:   (250 * time.Millisecond).Nanoseconds(),
						PingTimeout: (50 * time.Millisecond).Nanoseconds(),
					}
					if err := rt.SetFailureDetection(opts); err != nil {
						errs[rank] = err
						return
					}
				}
				c, err := mpi.World(rt, algs)
				if err != nil {
					errs[rank] = err
					return
				}
				errs[rank] = body(rank, c)
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}

	if kill != nil {
		// A chaos run is a failure-injection demo: dump every rank's
		// outcome and always exit nonzero.
		fmt.Printf("%s n=%d size=%dB: killed rank %d at +%v\n", work, cfg.N, size, kill.rank, kill.at)
		for r := 0; r < cfg.N; r++ {
			switch {
			case r == kill.rank:
				fmt.Printf("  rank %d: KILLED (%d/%d reps before death)\n", r, max(progress[r].Load(), 0), reps)
			case errs[r] == nil:
				fmt.Printf("  rank %d: completed all %d reps (kill landed after its last dependency)\n", r, reps)
			default:
				fmt.Printf("  rank %d: %v (%d/%d reps)\n", r, errs[r], max(progress[r].Load(), 0), reps)
			}
		}
		return fmt.Errorf("chaos: rank %d killed; see per-rank outcomes above", kill.rank)
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	sort.Float64s(samples)
	fmt.Printf("%s n=%d size=%dB reps=%d (real UDP/IP multicast)\n", work, cfg.N, size, reps)
	fmt.Printf("  median %8.1f µs   min %8.1f µs   max %8.1f µs\n",
		samples[len(samples)/2], samples[0], samples[len(samples)-1])
	fmt.Printf("  multicast path: %v\n", nw.Path())
	if cfg.P2PLossRate > 0 || cfg.LossRate > 0 {
		var p2pLost, mcastLost, repairs, streamed, retransmits, acks, probes, confirms int64
		for i := 0; i < nw.Size(); i++ {
			st := nw.Endpoint(i).Stats()
			p2pLost += st.InjectedP2PLosses
			mcastLost += st.InjectedLosses
			repairs += st.RepairsHeard
			streamed += st.Stream.MsgsStreamed
			retransmits += st.Stream.Retransmits
			acks += st.Stream.AcksSent
			probes += st.Stream.ProbesSent
			confirms += st.Stream.ConfirmsSent
		}
		fmt.Printf("  p2p loss %.1f%%: %d frames dropped, %d messages streamed, %d fragments retransmitted, %d probes (%d confirming a send), %d acks\n",
			cfg.P2PLossRate*100, p2pLost, streamed, retransmits, probes, confirms, acks)
		if cfg.LossRate > 0 {
			fmt.Printf("  multicast loss %.1f%%: %d fragments dropped, %d repair-flagged fragments heard\n",
				cfg.LossRate*100, mcastLost, repairs)
		}
	}
	return nil
}

// Pi progress markers. 0..100 is the integration percentage; the values
// outside that range mark the phases around it.
const (
	piWaitingBcast = -1
	piReducing     = 101
	piDone         = 102
)

// runPi estimates pi by numeric integration: the root broadcasts the
// interval count, every rank integrates its stripe, and a reduction sums
// the partial results — the classic first MPI program, exercising both
// collectives the paper optimizes. Each rank publishes its phase and
// integration percentage so a -deadline dump shows exactly where every
// rank is stuck.
func runPi(cfg udpnet.Config, algs mpi.Algorithms, deadline time.Duration) error {
	const intervals = 2_000_000
	progress := make([]atomic.Int64, cfg.N)
	for i := range progress {
		progress[i].Store(piWaitingBcast)
	}
	dump := func() {
		for r := 0; r < cfg.N; r++ {
			switch p := progress[r].Load(); {
			case p == piWaitingBcast:
				fmt.Fprintf(os.Stderr, "  rank %d: waiting for the interval-count broadcast\n", r)
			case p <= 100:
				fmt.Fprintf(os.Stderr, "  rank %d: integrating (%d%% of stripe)\n", r, p)
			case p == piReducing:
				fmt.Fprintf(os.Stderr, "  rank %d: integration done, in the sum reduction\n", r)
			default:
				fmt.Fprintf(os.Stderr, "  rank %d: done\n", r)
			}
		}
	}
	return watchdog(deadline, dump, func() error {
		return udpnet.Run(cfg, algs, func(c *mpi.Comm) error {
			rank := c.Rank()
			nbuf := mpi.Int64sToBytes([]int64{intervals})
			if err := c.Bcast(nbuf, 0); err != nil {
				return err
			}
			n := mpi.BytesToInt64s(nbuf)[0]
			progress[rank].Store(0)
			stride := int64(c.Size())
			steps := (n - int64(rank) + stride - 1) / stride
			h := 1.0 / float64(n)
			sum, done := 0.0, int64(0)
			for i := int64(rank); i < n; i += stride {
				x := h * (float64(i) + 0.5)
				sum += 4.0 / (1.0 + x*x)
				if done++; done%65536 == 0 {
					progress[rank].Store(done * 100 / steps)
				}
			}
			progress[rank].Store(piReducing)
			part := mpi.Float64sToBytes([]float64{sum * h})
			total := make([]byte, len(part))
			if err := c.Reduce(part, total, mpi.Float64, mpi.OpSum, 0); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			progress[rank].Store(piDone)
			if rank == 0 {
				pi := mpi.BytesToFloat64s(total)[0]
				fmt.Printf("pi ≈ %.12f  (error %.2e, %d ranks over real UDP multicast)\n",
					pi, math.Abs(pi-math.Pi), c.Size())
			}
			return nil
		})
	})
}
