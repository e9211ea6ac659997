package bench

import (
	"fmt"
	"math/bits"
	"os"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options scales the experiment grid. The zero value is filled with the
// paper's methodology (20 reps, sizes 0–5000 step 250, the full N
// grid of the shared-uplink sweeps).
type Options struct {
	Reps     int
	SizeStep int
	MaxSize  int
	Seed     uint64
	// MaxN caps the shared-uplink sweeps' N grid (0 means uncapped):
	// quick looks and unit tests stop at 32 where the big points would
	// dominate the runtime; CI and the paper methodology run the full
	// {4..256} grid.
	MaxN int
}

func (o Options) fill() Options {
	if o.Reps == 0 {
		o.Reps = 20
	}
	if o.SizeStep == 0 {
		o.SizeStep = 250
	}
	if o.MaxSize == 0 {
		o.MaxSize = 5000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) sizes() []int {
	var out []int
	for s := 0; s <= o.MaxSize; s += o.SizeStep {
		out = append(out, s)
	}
	return out
}

// Point is one measured X position of a series.
type Point struct {
	X        float64
	Median   float64
	Min      float64
	Max      float64
	Failures int
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced paper figure: a set of measured curves.
type Figure struct {
	ID          string
	Title       string
	XLabel      string
	YLabel      string
	Expectation string // the paper's qualitative claim for this figure
	Series      []Series
}

// Table is a non-curve experiment output (frame-count checks etc.).
type Table struct {
	ID          string
	Title       string
	Expectation string
	Header      []string
	Rows        [][]string
}

// Renderable is anything the harness can print and export.
type Renderable interface {
	Render() string
	CSV() string
	Name() string
}

// Def is a registered experiment.
type Def struct {
	ID    string
	Title string
	Build func(o Options) (Renderable, error)
}

// Defs lists every reproducible experiment; EXPERIMENTS.md at the repo
// root reports what each one measured.
func Defs() []Def {
	return []Def{
		{"7", "MPI_Bcast with 4 processes over Fast Ethernet hub", fig7},
		{"8", "MPI_Bcast with 4 processes over Fast Ethernet switch", fig8},
		{"9", "MPI_Bcast with 6 processes over Fast Ethernet switch", fig9},
		{"10", "MPI_Bcast with 9 processes over Fast Ethernet switch", fig10},
		{"11", "MPI_Bcast hub vs switch, 4 processes", fig11},
		{"12", "MPI_Bcast scaling: 3, 6, 9 processes over switch", fig12},
		{"13", "MPI_Barrier over hub vs number of processes", fig13},
		{"14", "Extension: MPI_Allgather multicast burst vs unicast ring", fig14},
		{"14n", "Extension: MPI_Allgather N-sweep over shared-uplink switch, N in {4..256}", fig14n},
		{"14h", "Extension: MPI_Allgather two-level (segment-leader) vs flat over shared-uplink switch, N in {4..256}", fig14h},
		{"15", "Extension: MPI_Allreduce multicast composition vs MPICH", fig15},
		{"15n", "Extension: MPI_Allreduce N-sweep over shared-uplink switch, N in {4..256}", fig15n},
		{"15h", "Extension: MPI_Allreduce two-level (segment-leader) vs flat over shared-uplink switch, N in {4..256}", fig15h},
		{"16", "Extension: MPI_Alltoall sliced burst vs pairwise unicast", fig16},
		{"18", "Extension: per-receiver delivered bytes with slice filtering", fig18},
		{"19", "Extension: chunked vs binomial-reduce multicast allreduce", fig19},
		{"a1", "Ablation: ACK-based (PVM) reliability vs scouts", figA1},
		{"a2", "Ablation: message loss without synchronization", figA2},
		{"a3", "Ablation: frame counts vs the paper's formulas", figA3},
		{"a4", "Ablation: fast senders overrunning a single receiver", figA4},
		{"a5", "Ablation: shared-uplink switch egress occupancy and silent-drop check", figA5},
		{"a6", "Ablation: two-level scout economy vs the N + S² + S bound, and silent-drop check", figA6},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Def, bool) {
	for _, d := range Defs() {
		if d.ID == id {
			return d, true
		}
	}
	return Def{}, false
}

// sweepSizes measures latency-vs-message-size curves for each algorithm
// running the given collective. prof, when non-nil, overrides the
// default calibration (the shared-uplink sweeps set UplinkFanout).
func sweepSizes(o Options, procs int, topo simnet.Topology, op Op, algs []Algorithm, strict bool, skew sim.Duration, prof *simnet.Profile) ([]Series, error) {
	var out []Series
	for _, a := range algs {
		s := Series{Label: string(a)}
		if len(algs) > 1 && topo == simnet.Hub {
			s.Label = string(a) + " (hub)"
		}
		for _, size := range o.sizes() {
			sc := DefaultScenario()
			sc.Procs = procs
			sc.Topology = topo
			sc.Algorithm = a
			sc.Op = op
			sc.MsgSize = size
			sc.Reps = o.Reps
			sc.Seed = o.Seed
			sc.StrictPosted = strict
			sc.Profile = prof
			if skew > 0 {
				sc.SkewMax = skew
			}
			r, err := Run(sc)
			if err != nil {
				return nil, fmt.Errorf("sweep %s/%s size %d: %w", a, op, size, err)
			}
			s.Points = append(s.Points, Point{
				X: float64(size), Median: r.Median(), Min: r.Min(), Max: r.Max(),
				Failures: r.Failures,
			})
		}
		out = append(out, s)
	}
	return out, nil
}

func bcastFigure(id string, o Options, procs int, topo simnet.Topology, expect string) (Renderable, error) {
	o = o.fill()
	series, err := sweepSizes(o, procs, topo, OpBcast, []Algorithm{MPICH, McastLinear, McastBinary}, false, 0, nil)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:          id,
		Title:       fmt.Sprintf("MPI_Bcast with %d processes over Fast Ethernet %s", procs, topo),
		XLabel:      "message size (bytes)",
		YLabel:      "latency (µs)",
		Expectation: expect,
		Series:      series,
	}, nil
}

func fig7(o Options) (Renderable, error) {
	return bcastFigure("7", o, 4, simnet.Hub,
		"Both multicast variants beat MPICH above ~1000 bytes; below that the scout cost makes them slower. MPICH shows the largest variance (collisions).")
}

func fig8(o Options) (Renderable, error) {
	return bcastFigure("8", o, 4, simnet.Switch,
		"Same crossover behaviour as the hub: multicast wins for large enough messages.")
}

func fig9(o Options) (Renderable, error) {
	return bcastFigure("9", o, 6, simnet.Switch,
		"Multicast still wins at size; with 6 nodes the binary gather has two children contending for node 0, adding variance.")
}

func fig10(o Options) (Renderable, error) {
	return bcastFigure("10", o, 9, simnet.Switch,
		"At 9 processes the MPICH tree sends 8 copies of the data; the multicast advantage and the crossover move further in multicast's favour.")
}

func fig11(o Options) (Renderable, error) {
	o = o.fill()
	var series []Series
	for _, topo := range []simnet.Topology{simnet.Hub, simnet.Switch} {
		for _, a := range []Algorithm{MPICH, McastBinary} {
			ss, err := sweepSizes(o, 4, topo, OpBcast, []Algorithm{a}, false, 0, nil)
			if err != nil {
				return nil, err
			}
			ss[0].Label = fmt.Sprintf("%s (%s)", a, topo)
			series = append(series, ss[0])
		}
	}
	return &Figure{
		ID:          "11",
		Title:       "MPI_Bcast over hub and switch, 4 processes",
		XLabel:      "message size (bytes)",
		YLabel:      "latency (µs)",
		Expectation: "Multicast is faster on the hub than the switch at all sizes (no store-and-forward); MPICH on the hub degrades past ~3000 bytes until the switch wins (contention).",
		Series:      series,
	}, nil
}

func fig12(o Options) (Renderable, error) {
	o = o.fill()
	var series []Series
	for _, procs := range []int{3, 6, 9} {
		for _, a := range []Algorithm{MPICH, McastLinear} {
			ss, err := sweepSizes(o, procs, simnet.Switch, OpBcast, []Algorithm{a}, false, 0, nil)
			if err != nil {
				return nil, err
			}
			ss[0].Label = fmt.Sprintf("%s (%d proc)", a, procs)
			series = append(series, ss[0])
		}
	}
	return &Figure{
		ID:          "12",
		Title:       "MPI_Bcast with 3, 6 and 9 processes over Fast Ethernet switch",
		XLabel:      "message size (bytes)",
		YLabel:      "latency (µs)",
		Expectation: "The linear multicast algorithm's cost of adding processes is nearly constant in message size; MPICH's grows with message size (more copies of the data).",
		Series:      series,
	}, nil
}

func fig13(o Options) (Renderable, error) {
	o = o.fill()
	var series []Series
	for _, a := range []Algorithm{MPICH, McastBinary} {
		label := "MPICH"
		if a == McastBinary {
			label = "multicast"
		}
		s := Series{Label: label}
		for procs := 2; procs <= 9; procs++ {
			sc := DefaultScenario()
			sc.Procs = procs
			sc.Topology = simnet.Hub
			sc.Algorithm = a
			sc.Op = OpBarrier
			sc.Reps = o.Reps
			sc.Seed = o.Seed
			r, err := Run(sc)
			if err != nil {
				return nil, fmt.Errorf("fig13 %s procs %d: %w", a, procs, err)
			}
			s.Points = append(s.Points, Point{
				X: float64(procs), Median: r.Median(), Min: r.Min(), Max: r.Max(),
			})
		}
		series = append(series, s)
	}
	return &Figure{
		ID:          "13",
		Title:       "MPI_Barrier over Fast Ethernet hub",
		XLabel:      "number of processes",
		YLabel:      "latency (µs)",
		Expectation: "Multicast outperforms the MPICH barrier on average, and the gap grows with the number of processes.",
		Series:      series,
	}, nil
}

// suiteFigure sweeps one of the extension collectives across process
// counts and payload sizes, comparing the given algorithm selections —
// the comparison the paper's future-work section asks for.
func suiteFigure(id, title string, o Options, topo simnet.Topology, op Op, algs []Algorithm, expect string) (Renderable, error) {
	var series []Series
	for _, procs := range []int{4, 8} {
		for _, a := range algs {
			ss, err := sweepSizes(o, procs, topo, op, []Algorithm{a}, false, 0, nil)
			if err != nil {
				return nil, fmt.Errorf("figure %s: %w", id, err)
			}
			ss[0].Label = fmt.Sprintf("%s (%d proc)", a, procs)
			series = append(series, ss[0])
		}
	}
	return &Figure{
		ID:          id,
		Title:       title,
		XLabel:      "chunk size per rank (bytes)",
		YLabel:      "latency (µs)",
		Expectation: expect,
		Series:      series,
	}, nil
}

func fig14(o Options) (Renderable, error) {
	o = o.fill()
	return suiteFigure("14", "MPI_Allgather: multicast burst vs unicast ring over Fast Ethernet hub", o, simnet.Hub, OpAllgather,
		[]Algorithm{MPICH, McastBinary},
		"The ring moves N(N-1) copies of a chunk over the shared medium, the multicast allgather N: one handshake (N-1 scouts and one release), then the ranks multicast their chunks in slot order, one station at a time. It wins from 500 B at N=4 and at every size at N=8, and the gap grows with both N and chunk size.")
}

func fig15(o Options) (Renderable, error) {
	o = o.fill()
	return suiteFigure("15", "MPI_Allreduce: binomial reduce + multicast bcast vs MPICH over Fast Ethernet hub", o, simnet.Hub, OpAllreduce,
		[]Algorithm{MPICH, McastBinary},
		"Both run a binomial reduce, but the multicast variant rides the UDP bypass (no per-message TCP penalty) and its broadcast half sends ceil(M/T) frames instead of (N-1)·ceil(M/T); the two effects compound, so the composition wins at every size and more so at N=8.")
}

func fig16(o Options) (Renderable, error) {
	o = o.fill()
	return suiteFigure("16", "MPI_Alltoall: sliced multicast burst vs pairwise unicast over Fast Ethernet hub", o, simnet.Hub, OpAlltoall,
		[]Algorithm{MPICH, McastBinary},
		"After one handshake (N-1 scouts and one release) the ranks multicast their slices in slot order, each slice to its receiver's private group and the next rank's last, so the wire and every receiver carry exactly the pairwise byte count — without the TCP penalty and kernel-ack frames of the reliable pairwise exchange, and release-gated so fast senders cannot overrun one receiver. It wins from 2000 B at N=4 and from 1000 B at N=8 (1.4x at 5000 B).")
}

// fig18 measures what slice filtering buys at the receivers: the worst
// per-receiver delivered data bytes of one alltoall under the sliced
// rounds, against the pairwise baseline, which delivers each receiver
// only its (N-1)·M.
func fig18(o Options) (Renderable, error) {
	o = o.fill()
	tbl := &Table{
		ID:          "18",
		Title:       "MPI_Alltoall: worst per-receiver delivered data bytes, 8 processes over Fast Ethernet hub",
		Expectation: "The sliced rounds deliver each receiver exactly the pairwise-unicast byte count ((N-1)·M). The NIC's multicast filter drops foreign-slice fragments before they cost the receiving host anything.",
		Header:      []string{"chunk (B)", "mpich (pairwise)", "mcast-binary (sliced)", "sliced/pairwise"},
	}
	const procs = 8
	for _, chunk := range []int{500, 1500, 4000} {
		row := []string{fmt.Sprintf("%d", chunk)}
		var pairwise, sliced int64
		for _, a := range []Algorithm{MPICH, McastBinary} {
			algs, err := Set(a)
			if err != nil {
				return nil, err
			}
			nw, err := cluster.RunSim(procs, simnet.Hub, simnet.DefaultProfile(), algs,
				func(c *mpi.Comm) error {
					send := make([]byte, procs*chunk)
					recv := make([]byte, procs*chunk)
					return c.Alltoall(send, recv)
				})
			if err != nil {
				return nil, fmt.Errorf("fig18 %s chunk %d: %w", a, chunk, err)
			}
			var worst int64
			for r := 0; r < procs; r++ {
				if got := nw.Endpoint(r).Delivered().DataBytes; got > worst {
					worst = got
				}
			}
			switch a {
			case MPICH:
				pairwise = worst
			case McastBinary:
				sliced = worst
			}
			row = append(row, fmt.Sprintf("%d", worst))
		}
		row = append(row, fmt.Sprintf("%.2f", float64(sliced)/float64(pairwise)))
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

func fig19(o Options) (Renderable, error) {
	o = o.fill()
	return suiteFigure("19", "MPI_Allreduce: chunked (per-slice reduce-scatter + multicast allgather) vs binomial reduce + multicast bcast over Fast Ethernet switch", o, simnet.Switch, OpAllreduce,
		[]Algorithm{McastBinary, McastChunked, MPICH},
		"The chunked variant caps the byte funnel: no rank moves more than ~2M bytes (the binomial composition pushes log2(N)·M through rank 0 — see the per-rank delivered-byte counters), and the reduction work spreads evenly. Its per-slice walks overlap, so their N(N-1) per-message host overheads do not serialize, and its gather sends no scouts, gated by the reduce-scatter: at N=8 it beats MPICH from ~500 B and crosses below the binomial composition by 1000 B (1128 against 1270 µs; 1890 against 4900 at 8000 B, EXPERIMENTS.md). Below that the per-message overheads keep it above.")
}

// sharedUplinkProfile is the shared-uplink calibration of the N-sweep
// figures: four stations per switch port, so N=16 spans 4 segments and
// N=32 spans 8 — the stacked-switch fabric the paper's 8-port testbed
// could not build.
func sharedUplinkProfile() *simnet.Profile {
	prof := simnet.DefaultProfile()
	prof.UplinkFanout = 4
	return &prof
}

// sweepNs is the N grid of the shared-uplink sweeps (figures 14n/15n/
// 14h/15h and the a5/a6 ablation tables): the paper-scale points plus
// the 64- and 256-rank fabrics where the quadratic scout terms and the
// switch queue model are actually stressed. Setting BENCH_LONG in the
// environment appends the opt-in 1024-rank point, which is too slow for
// the default CI budget.
func sweepNs() []int {
	ns := []int{4, 8, 16, 32, 64, 256}
	if os.Getenv("BENCH_LONG") != "" {
		ns = append(ns, 1024)
	}
	return ns
}

// cappedNs applies Options.MaxN to the sweep grid.
func (o Options) cappedNs() []int {
	ns := sweepNs()
	if o.MaxN <= 0 {
		return ns
	}
	out := ns[:0:0]
	for _, n := range ns {
		if n <= o.MaxN {
			out = append(out, n)
		}
	}
	return out
}

// nSweepFigure sweeps one collective across N ∈ sweepNs() on the
// shared-uplink switch for the given algorithm selections — the
// topology dimension where Karonis-style crossovers actually move: an
// uplink carries a multicast once per segment but a unicast exchange
// once per destination, so the multicast advantage compounds with
// fanout (14n/15n), and the two-level decomposition removes the scout
// serialization that remained (14h/15h).
func nSweepFigure(id, title string, o Options, op Op, algs []Algorithm, expect string) (Renderable, error) {
	o = o.fill()
	var series []Series
	for _, procs := range o.cappedNs() {
		for _, a := range algs {
			ss, err := sweepSizes(o, procs, simnet.SwitchShared, op, []Algorithm{a}, false, 0, sharedUplinkProfile())
			if err != nil {
				return nil, fmt.Errorf("figure %s: %w", id, err)
			}
			ss[0].Label = fmt.Sprintf("%s (%d proc)", a, procs)
			series = append(series, ss[0])
		}
	}
	return &Figure{
		ID:          id,
		Title:       title,
		XLabel:      "chunk size per rank (bytes)",
		YLabel:      "latency (µs)",
		Expectation: expect,
		Series:      series,
	}, nil
}

func fig14n(o Options) (Renderable, error) {
	return nSweepFigure("14n",
		"MPI_Allgather N-sweep: multicast rounds vs unicast baseline over shared-uplink switch (4 stations/port)", o,
		OpAllgather, []Algorithm{MPICH, McastBinary},
		"Each uplink carries every multicast once, but the unicast baseline's N(N-1) messages cross it once per remote destination, so the large-chunk gap grows with N (3.7x at N=8 to 5.0x at N=256 by 5000 B). The multicast allgather is one burst whose handshake is N-1 scouts and one release, so from N=8 on it wins at every size, chunk 0 included; at N=4 the four stations share one segment — one collision domain — where they multicast in slot order, and the crossover falls below 1000 B. Egress queues stay bounded by flow control — the a5 table asserts zero silent drops on this sweep.")
}

func fig14h(o Options) (Renderable, error) {
	return nSweepFigure("14h",
		"MPI_Allgather: two-level (segment-leader) vs flat over shared-uplink switch (4 stations/port)", o,
		OpAllgather, []Algorithm{McastBinary, McastTwoLevel},
		"At every N the two sets run the same lossless allgather, one burst: the multicast barrier's N-1 scouts and one release, then every rank multicasts its own chunk, N·M bytes per segment wire with every per-round gather collapsed into the one handshake, so their curves coincide. From N=8 on the ranks multicast at once; at N=4 a single segment is one collision domain, where they multicast in slot order.")
}

func fig15n(o Options) (Renderable, error) {
	return nSweepFigure("15n",
		"MPI_Allreduce N-sweep: binomial reduce + multicast bcast vs MPICH over shared-uplink switch (4 stations/port)", o,
		OpAllreduce, []Algorithm{MPICH, McastBinary},
		"The composition wins at every size and every N — its broadcast half pays each uplink once where MPICH's binomial broadcast pays per destination, and its reduce half rides the UDP bypass without the per-message TCP penalty — with the gap growing from ~1.4x at N=4 to ~1.6x at N=32 (5000 B).")
}

func fig15h(o Options) (Renderable, error) {
	return nSweepFigure("15h",
		"MPI_Allreduce: two-level (segment-leader) vs flat composition over shared-uplink switch (4 stations/port)", o,
		OpAllreduce, []Algorithm{McastBinary, McastTwoLevel},
		"The two-level allreduce sends no scout frames at all — members combine at their segment leader, leaders combine up a binomial tree (one aggregate per segment across the uplinks), and the final multicast is gated by the reduction data itself — so it beats the flat composition at every N and every size, with the margin largest at small chunks where the flat binomial's uplink-crossing pairs and scout-gated broadcast dominate.")
}

// figA5 measures what the shared-uplink N-sweep does to the switch's
// bounded egress queues: per-scenario high watermarks, backpressure
// events, and — the CI gate — a self-check column that renders
// SILENT-DROP if any frame was tail-dropped instead of flow-controlled.
func figA5(o Options) (Renderable, error) {
	o = o.fill()
	tbl := &Table{
		ID:          "a5",
		Title:       "Shared-uplink switch egress occupancy under the N-sweep collectives (4 stations/port, 4000-byte chunks)",
		Expectation: "Converging bursts fill the bounded per-port queues up to (never beyond) their cap and are absorbed by PAUSE backpressure: the high watermark grows with N, pauses appear once a port's fan-in exceeds its queue, and the silent-drop counter stays zero everywhere.",
		Header:      []string{"op", "N", "ports", "max queue depth", "held frames", "pauses", "silent drops", "check"},
	}
	const chunk = 4000
	for _, op := range []Op{OpAllgather, OpAllreduce, OpGather, OpAlltoall} {
		for _, procs := range o.cappedNs() {
			prof := *sharedUplinkProfile()
			prof.Seed = o.Seed
			nw, _, err := coldRun(procs, simnet.SwitchShared, prof, McastBinary, op, chunk)
			if err != nil {
				return nil, err
			}
			st := nw.SwitchStats()
			var held int64
			for _, ps := range nw.SwitchPortStats() {
				held += ps.Held
			}
			check := "ok"
			if st.QueueDrops != 0 {
				// The CI bench-smoke job greps the uploaded table for this
				// marker and fails the build on it.
				check = "SILENT-DROP"
			}
			tbl.Rows = append(tbl.Rows, []string{
				string(op), fmt.Sprintf("%d", procs),
				fmt.Sprintf("%d", len(nw.SwitchPortStats())),
				fmt.Sprintf("%d", st.MaxQueueDepth),
				fmt.Sprintf("%d", held),
				fmt.Sprintf("%d", st.PauseEvents),
				fmt.Sprintf("%d", st.QueueDrops),
				check,
			})
		}
	}
	return tbl, nil
}

// figA6 is the CI gate on the topology subsystem's scout claim: a
// two-level allgather on the shared-uplink fabric sends at most
// N + S² + S scout frames per operation. Lossless it is the flat set's
// burst at every N, N-1 scouts per window of 256 senders, and so is the
// flat allgather; the combine-based schedule runs only under repair,
// with (N-S) member scouts plus S(S-1) leader-round scouts, where the
// flat rounds send N(N-1). The table measures both sets, renders SCOUT-EXCESS
// if the bound is breached, and re-checks the silent-drop counter
// (SILENT-DROP) so the two-level traffic also stays inside flow
// control. N=4 spans a single 4-station segment — one collision domain,
// where both sets run the flat burst in slot order — so that row
// documents the degenerate case instead of gating on the (inapplicable)
// bound.
func figA6(o Options) (Renderable, error) {
	o = o.fill()
	tbl := &Table{
		ID:          "a6",
		Title:       "Two-level allgather scout economy over the shared-uplink switch (4 stations/port, 1500-byte chunks)",
		Expectation: "Both sets run one burst at every N — at N=4, one segment, in slot order: N-1 scout frames, under the N + S² + S gate (which the combine-based schedule's (N-S) + S(S-1) meets under repair), versus the N(N-1) of the rounds; zero silent egress drops.",
		Header:      []string{"N", "S", "2level scouts", "bound N+S²+S", "flat scouts", "silent drops", "check"},
	}
	const chunk = 1500
	measure := func(a Algorithm, procs int) (scouts, drops int64, segments int, err error) {
		prof := *sharedUplinkProfile()
		prof.Seed = o.Seed
		nw, _, err := coldRun(procs, simnet.SwitchShared, prof, a, OpAllgather, chunk)
		if err != nil {
			return 0, 0, 0, err
		}
		// S comes from the network's own discovered map, so the bound
		// column can never drift from the wiring the run measured.
		return nw.Wire.Frames(transport.ClassScout), nw.SwitchStats().QueueDrops, nw.TopoMap().Segments(), nil
	}
	for _, procs := range o.cappedNs() {
		two, drops, s, err := measure(McastTwoLevel, procs)
		if err != nil {
			return nil, err
		}
		flat, _, _, err := measure(McastBinary, procs)
		if err != nil {
			return nil, err
		}
		bound := int64(procs + s*s + s)
		check := "ok"
		switch {
		case drops != 0:
			check = "SILENT-DROP"
		case s <= 1:
			// Degenerate single-segment fabric: the two-level suite
			// delegates to the flat algorithm, whose N(N-1) scouts are
			// the correct count there.
			check = "flat (S=1)"
			if two != flat {
				check = "SCOUT-EXCESS"
			}
		case two > bound:
			// The CI bench-smoke job greps the uploaded table for this
			// marker and fails the build on it.
			check = "SCOUT-EXCESS"
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", procs), fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", two), fmt.Sprintf("%d", bound),
			fmt.Sprintf("%d", flat), fmt.Sprintf("%d", drops),
			check,
		})
	}
	return tbl, nil
}

func figA1(o Options) (Renderable, error) {
	o = o.fill()
	series, err := sweepSizes(o, 4, simnet.Switch, OpBcast,
		[]Algorithm{MPICH, McastBinary, McastAck}, false, 60*sim.Microsecond, nil)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:          "a1",
		Title:       "ACK-based (PVM-style) reliable multicast vs scout synchronization (60 µs skew, 100 µs resend timer)",
		XLabel:      "message size (bytes)",
		YLabel:      "latency (µs)",
		Expectation: "The ACK protocol re-multicasts the full data while waiting for acknowledgments, so its root pays for duplicate sends — the PVM finding that sender-repeats reliability erases the multicast win; scouts stay cheaper at every size. (Under strict posted-receive semantics it additionally loses data outright; see the core package tests.)",
		Series:      series,
	}, nil
}

func figA2(o Options) (Renderable, error) {
	o = o.fill()
	skews := []sim.Duration{0, 10, 50, 200, 1000, 5000}
	tbl := &Table{
		ID:          "a2",
		Title:       "Broadcast completion without vs with scout synchronization under strict posted-receive semantics",
		Expectation: "Without synchronization (unsafe) the multicast is lost whenever a receiver is late, so runs fail; the scout algorithms never lose.",
		Header:      []string{"max skew (µs)", "unsafe failed/reps", "binary failed/reps", "linear failed/reps"},
	}
	for _, skew := range skews {
		row := []string{fmt.Sprintf("%d", skew)}
		for _, a := range []Algorithm{Unsafe, McastBinary, McastLinear} {
			sc := DefaultScenario()
			sc.Procs = 4
			sc.Algorithm = a
			sc.MsgSize = 1000
			sc.Reps = o.Reps
			sc.Seed = o.Seed
			sc.StrictPosted = true
			sc.SkewMax = skew * sim.Microsecond
			if skew == 0 {
				sc.SkewMax = 0
			}
			r, err := Run(sc)
			if err != nil {
				// All repetitions failed (expected for unsafe at high skew).
				row = append(row, fmt.Sprintf("%d/%d", sc.Reps, sc.Reps))
				continue
			}
			row = append(row, fmt.Sprintf("%d/%d", r.Failures, sc.Reps))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}

func figA3(o Options) (Renderable, error) {
	o = o.fill()
	const frag = simnet.MaxFragPayload
	tbl := &Table{
		ID:          "a3",
		Title:       "Wire frame counts vs the §3 formulas, whole suite (T = frame payload, s = scouts, d = data, c = control)",
		Expectation: "Every measured count matches its formula exactly: the multicast operations pay N-1 scouts per gated multicast — the allgather's and the alltoall's burst N-1 and one release for all of their multicasts, the chunked allreduce's gather none, gated by its reduce-scatter — and send each payload once; the MPICH baseline repeats the payload per receiver.",
		Header:      []string{"op", "algorithm", "N", "M (bytes)", "scout", "data", "ctrl", "formula (s+d+c)", "match"},
	}
	for _, n := range []int{2, 4, 7, 9} {
		log2k := bits.Len(uint(n)) - 1
		k := 1 << log2k // the largest power of two <= n
		for _, msg := range []int{0, 1000, 5000} {
			mf := trace.FramesForMessage(msg, frag) // ceil(M/T)
			// Chunked allreduce: per-slice binomial walks ((N-1) sends
			// of one slice each), slices front-loaded over the elements,
			// then a gather with no scouts and no release — the
			// reduce-scatter is its evidence — in which every rank
			// multicasts its slice once. Nothing moves at 0 B.
			chunkedData := 0
			for s := 0; s < n; s++ {
				sz := msg / n
				if s < msg%n {
					sz++
				}
				if sz == 0 {
					continue
				}
				chunkedData += n * trace.FramesForMessage(sz, frag)
			}
			rows := []struct {
				op      Op
				alg     Algorithm
				formula string
			}{
				{OpBcast, McastBinary, fmt.Sprintf("%d+%d+0", n-1, mf)},
				{OpBcast, MPICH, fmt.Sprintf("0+%d+0", mf*(n-1))},
				{OpBarrier, McastBinary, fmt.Sprintf("%d+0+1", n-1)},
				{OpBarrier, MPICH, fmt.Sprintf("0+0+%d", 2*(n-k)+k*log2k)},
				{OpAllgather, McastBinary, fmt.Sprintf("%d+%d+1", n-1, n*mf)},
				{OpAllreduce, McastBinary, fmt.Sprintf("%d+%d+0", n-1, n*mf)},
				{OpAllreduce, McastChunked, fmt.Sprintf("0+%d+0", chunkedData)},
				{OpAlltoall, McastBinary, fmt.Sprintf("%d+%d+1", n-1, n*(n-1)*mf)},
				{OpScatter, McastBinary, fmt.Sprintf("%d+%d+0", n-1, (n-1)*mf)},
				{OpGather, McastBinary, fmt.Sprintf("%d+%d+1", n-1, (n-1)*mf)},
			}
			for _, r := range rows {
				if r.op == OpBarrier && msg != 0 {
					continue // the barrier carries no payload
				}
				nw, _, err := coldRun(n, simnet.Switch, simnet.DefaultProfile(), r.alg, r.op, msg)
				if err != nil {
					return nil, err
				}
				w := &nw.Wire
				measured := fmt.Sprintf("%d+%d+%d",
					w.Frames(transport.ClassScout),
					w.Frames(transport.ClassData),
					w.Frames(transport.ClassControl))
				match := "ok"
				if measured != r.formula {
					// The CI bench-smoke job uploads this table as an
					// artifact and the smoke test greps for MISMATCH, so
					// a frame-count regression surfaces in every PR.
					match = "MISMATCH"
				}
				tbl.Rows = append(tbl.Rows, []string{
					string(r.op), string(r.alg),
					fmt.Sprintf("%d", n), fmt.Sprintf("%d", msg),
					fmt.Sprintf("%d", w.Frames(transport.ClassScout)),
					fmt.Sprintf("%d", w.Frames(transport.ClassData)),
					fmt.Sprintf("%d", w.Frames(transport.ClassControl)),
					r.formula,
					match,
				})
			}
		}
	}
	return tbl, nil
}

// figA4 examines the overrun risk the paper's future work singles out:
// "it is possible that a set of fast senders may overrun a single
// receiver … in many-to-many communications". Eight senders burst
// messages at one busy receiver; the receive ring (socket buffer) bounds
// how much survives until the receiver drains.
func figA4(o Options) (Renderable, error) {
	o = o.fill()
	bursts := []int{4, 16, 64}
	rings := []int{4, 16, 64, 256}
	tbl := &Table{
		ID:          "a4",
		Title:       "Messages lost to receive-ring overflow: 8 senders bursting 1000-byte messages at one busy receiver",
		Expectation: "Overrun losses appear as soon as the aggregate burst exceeds the receiver's buffering, and scale with burst size — the paper's anticipated many-to-many failure mode. Large socket buffers (the 256 default) absorb realistic bursts.",
		Header:      []string{"ring size", "burst 4/sender", "burst 16/sender", "burst 64/sender"},
	}
	const senders = 8
	for _, ring := range rings {
		row := []string{fmt.Sprintf("%d", ring)}
		for _, burst := range bursts {
			prof := simnet.DefaultProfile()
			prof.RecvRing = ring
			nw := simnet.New(senders+1, simnet.Switch, prof)
			fns := make([]func(ep *simnet.Endpoint) error, senders+1)
			fns[0] = func(ep *simnet.Endpoint) error {
				// Busy computing while the burst arrives.
				ep.Proc().Sleep(200 * sim.Millisecond)
				for {
					_, ok, err := ep.RecvTimeout(int64(10 * sim.Millisecond))
					if err != nil {
						return err
					}
					if !ok {
						return nil // drained
					}
				}
			}
			for r := 1; r <= senders; r++ {
				burst := burst
				fns[r] = func(ep *simnet.Endpoint) error {
					for k := 0; k < burst; k++ {
						err := ep.Send(0, transport.Message{
							Class:   transport.ClassData,
							Payload: make([]byte, 1000),
						})
						if err != nil {
							return err
						}
					}
					return nil
				}
			}
			if err := nw.Run(fns); err != nil {
				return nil, fmt.Errorf("a4 ring=%d burst=%d: %w", ring, burst, err)
			}
			total := senders * burst
			row = append(row, fmt.Sprintf("%d/%d", nw.Stats.RingOverflows, total))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl, nil
}
