package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/workload"
)

// sweep is one measured table behind a regime of plan: one cold
// operation per cell at seed 1, rooted at rank 0, on the switch (fanout
// 0, one station per port) or on the shared-uplink switch at fanout.
// Each cell is the sim-µs of schedule with over those of other: a ratio
// printed to two places, or the two sim-µs "with/other". "—" marks a
// cell not measured.
type sweep struct {
	name   string
	k      kind
	op     operation
	fanout int
	with   schedule
	// other is the schedule the denominator ran; -1 means the flat
	// binary set as it is, whatever plan picks for it.
	other schedule
	grid  string
	// gaveUp lists the cells where plan picks the slower schedule, each
	// with the ratio the table reads.
	gaveUp []cell
	// sample is the cell TestPlanTablesReproduce re-measures, if any.
	sample *cell
}

// cell is one measured point: the ratio with/other at n ranks and bytes
// per rank, and for a pair cell the two sim-µs it was printed as.
type cell struct {
	n, bytes int
	ratio    float64
	pair     [2]int64
}

// flatSet marks a sweep whose denominator is the flat binary set.
const flatSet schedule = -1

// sweeps are the tables behind plan's regimes. Seed 7 read the same
// where it was run (alltoall, two-level, sliced scatter).
var sweeps = []sweep{{
	// Up to N=32, from a frame, N-1 slices that reach only their own
	// receiver beat blocks that every member of a segment hears; small
	// chunks favour the blocks (S multicasts per rank, not N-1). From N=64
	// the flat burst gains at most 1.4 % and loses up to 6 %.
	name: "alltoall: the flat burst over the two-level burst",
	k:    kind{twoLevel: true}, op: opAlltoall, fanout: 4, with: flatBurst, other: segmentBurst,
	grid: `
N     100   500  1,000  1,500  2,000  4,000  8,000  12,000  16,000  32,000  65,536
8    1.26  0.97   0.92   0.90   0.89   0.85   0.86       —    0.85       —    0.86
16   1.33  1.03   0.98   0.98   0.96   0.94   0.94       —    0.93       —    0.95
32   1.41  1.07   1.00   1.02   1.00   0.97   0.97       —    0.97       —    0.93
64      —  1.09   1.01   1.04   1.02   0.99   0.99       —    1.00    1.04       —
128     —  1.09   1.02   1.04   1.02   0.99   1.00    1.01    1.06       —       —
256  1.55     —      —      —   1.02   1.00   1.00       —       —       —       —`,
	gaveUp: []cell{{n: 8, bytes: 500, ratio: 0.97}, {n: 32, bytes: 1_500, ratio: 1.02},
		{n: 64, bytes: 4_000, ratio: 0.99}, {n: 64, bytes: 8_000, ratio: 0.99}, {n: 128, bytes: 4_000, ratio: 0.99}},
	sample: &cell{n: 16, bytes: 1_000},
}, {
	// The segment blocks beat the flat set's point-to-point scatter from
	// N=32 while a block fits one frame; the wins past a frame are not
	// monotone in M and are given up.
	name: "scatter: the two-level segment round over the flat set",
	k:    kind{twoLevel: true}, op: opScatter, fanout: 4, with: segmentRound, other: flatSet,
	grid: `
N     100   250   300   356   368   500   750  1,000  2,000  5,000
8    1.34  1.54     —     —  1.75  1.67  1.61   1.53   1.41   1.34
16   0.94  1.13     —     —  1.33  1.39  1.36   1.30   1.19   1.16
24   0.80     —  1.05     —     —     —     —      —      —      —
32   0.67  0.85     —  0.99  1.05  1.19  1.18   1.15   1.06   1.06
64   0.54  0.72     —     —  0.91  1.06  1.10   1.08   1.01   1.03
128  0.46  0.64     —     —  0.83  0.99  1.05   1.04   0.99   1.01
256  0.42  0.59     —     —  0.79  0.89  0.95   0.97   0.98   1.00`,
	gaveUp: []cell{{n: 16, bytes: 100, ratio: 0.94}, {n: 24, bytes: 100, ratio: 0.80},
		{n: 64, bytes: 368, ratio: 0.91}, {n: 128, bytes: 368, ratio: 0.83}, {n: 128, bytes: 500, ratio: 0.99},
		{n: 128, bytes: 2_000, ratio: 0.99}, {n: 256, bytes: 368, ratio: 0.79}, {n: 256, bytes: 500, ratio: 0.89},
		{n: 256, bytes: 750, ratio: 0.95}, {n: 256, bytes: 1_000, ratio: 0.97}, {n: 256, bytes: 2_000, ratio: 0.98}},
	sample: &cell{n: 32, bytes: 100},
}, {
	// Member → leader → root sends beat the flat point-to-point gather
	// from N=16 while a block fits one frame (at N=14 and 15 the sweep
	// read 0.56–0.96, at N=12 1.05–1.11 from 300 B).
	name: "gather: the two-level nested gather over the flat set",
	k:    kind{twoLevel: true}, op: opGather, fanout: 4, with: nestedP2P, other: flatSet,
	grid: `
N     100   250   356   368   500   750  1,000  2,000  5,000
8    1.03  1.25  1.40  1.45  1.39  1.39   1.35   1.29   1.23
12   0.80  1.00  1.11  1.26  1.19  1.26   1.18   1.17   1.17
16   0.67  0.85  0.98  1.17  1.08  1.20   1.10   1.12   1.15
24   0.52  0.71  0.84  1.08  0.98  1.13   1.01   1.07   1.11
32   0.45  0.64  0.78  1.03  0.93  1.10   0.97   1.04   1.06
64   0.40  0.57  0.70  0.99  0.87  1.07   0.92   1.01   1.11
128  0.38  0.55  0.69  0.76  0.80  0.88   0.89   0.96   1.11
256  0.35  0.52  0.65  0.71  0.87  1.07   0.96   0.89   1.08`,
	gaveUp: []cell{{n: 12, bytes: 100, ratio: 0.80}, {n: 24, bytes: 500, ratio: 0.98},
		{n: 32, bytes: 500, ratio: 0.93}, {n: 32, bytes: 1_000, ratio: 0.97},
		{n: 64, bytes: 368, ratio: 0.99}, {n: 64, bytes: 500, ratio: 0.87}, {n: 64, bytes: 1_000, ratio: 0.92},
		{n: 128, bytes: 368, ratio: 0.76}, {n: 128, bytes: 500, ratio: 0.80}, {n: 128, bytes: 750, ratio: 0.88},
		{n: 128, bytes: 1_000, ratio: 0.89}, {n: 128, bytes: 2_000, ratio: 0.96},
		{n: 256, bytes: 368, ratio: 0.71}, {n: 256, bytes: 500, ratio: 0.87}, {n: 256, bytes: 1_000, ratio: 0.96},
		{n: 256, bytes: 2_000, ratio: 0.89}},
	sample: &cell{n: 16, bytes: 100},
}, {
	// A slice group's multicast is one frame per receiver like a
	// unicast, but it waits behind a scout gather; from two frames a
	// slice, the connectionless send pays for the gather once N-1 slices
	// are many. Off shared uplinks the sliced round loses in every cell
	// TestFlatGuideline covers, and the linear scout gather's loses in
	// every cell of this sweep too (1.01–1.80×).
	name: "scatter: the flat sliced round over package baseline's",
	k:    kind{}, op: opScatter, fanout: 4, with: slicedRound, other: pointToPoint,
	grid: `
N     100   500  1,000  1,424  1,500  2,000  5,000  10,000
8    1.70  1.45   1.30   1.23   1.22   1.18   1.07    1.01
16   1.43  1.30   1.19   1.14   1.11   1.09   1.03    0.99
32   1.22  1.18   1.10   1.08   1.03   1.02   0.99    0.98
64   1.12  1.10   1.07   1.05   0.99   0.99   0.98    0.97
128  1.07  1.05   1.04   1.03   0.97   0.97   0.97    0.96
256  1.03  0.97   0.98   1.00   0.96   0.97   0.95    0.95`,
	gaveUp: []cell{{n: 16, bytes: 10_000, ratio: 0.99}, {n: 32, bytes: 5_000, ratio: 0.99},
		{n: 32, bytes: 10_000, ratio: 0.98}, {n: 256, bytes: 500, ratio: 0.97}, {n: 256, bytes: 1_000, ratio: 0.98}},
	sample: &cell{n: 64, bytes: 2_000},
}, {
	// The point-to-point gather runs while two gathers' messages fit the
	// root's receive ring (N ≤ 128, TestGatherRingBound), and is also the
	// faster schedule there. Past it the release-gated gather runs for
	// the ring's sake, not for speed: the rows from N=129, measured
	// 2026-10-20, are given up wherever point to point was faster.
	name: "gather: the release-gated gather over package baseline's",
	k:    kind{}, op: opGather, fanout: 4, with: releaseGated, other: pointToPoint,
	grid: `
N              100     500   1,000   1,424   1,500   2,000   5,000  10,000
8             2.00    1.68    1.45    1.35    1.31    1.27    1.11    1.04
16            1.67    1.34    1.21    1.17    1.16    1.15    1.07    1.03
32            1.34    1.11    1.06    1.05    1.08    1.08    1.03    1.02
64            1.19    1.00    1.00    1.00    1.05    1.04    1.08    1.04
128           1.11    0.95    0.96    0.97    1.32    1.09    1.05    1.07
129    7,425/6,670       —  13,096/13,665    —       —       —  62,058/59,495     —
192    10,891/9,941      —  19,329/20,343    —       —       —  90,308/88,697     —
256   14,138/13,264      —  25,407/27,127    —       —       —  118,597/118,362   —`,
	gaveUp: []cell{{n: 128, bytes: 500, ratio: 0.95}, {n: 128, bytes: 1_000, ratio: 0.96}, {n: 128, bytes: 1_424, ratio: 0.97},
		{n: 129, bytes: 100, ratio: 1.113}, {n: 129, bytes: 5_000, ratio: 1.043},
		{n: 192, bytes: 100, ratio: 1.096}, {n: 192, bytes: 5_000, ratio: 1.018},
		{n: 256, bytes: 100, ratio: 1.066}, {n: 256, bytes: 5_000, ratio: 1.002}},
	sample: &cell{n: 32, bytes: 100},
}, {
	// The same past N=128 on the switch, measured 2026-10-20: point to
	// point is faster in every cell, and given up for the ring.
	name: "gather: the release-gated gather over package baseline's, switch",
	k:    kind{}, op: opGather, with: releaseGated, other: pointToPoint,
	grid: `
N              100             1,000             5,000
129    7,646/6,683     13,389/12,343     62,439/56,883
192   10,961/9,954     19,471/18,381     90,405/84,805
256  14,359/13,276     25,680/24,515   118,845/113,170`,
	gaveUp: []cell{{n: 129, bytes: 100, ratio: 1.144}, {n: 129, bytes: 1_000, ratio: 1.085}, {n: 129, bytes: 5_000, ratio: 1.098},
		{n: 192, bytes: 100, ratio: 1.101}, {n: 192, bytes: 1_000, ratio: 1.059}, {n: 192, bytes: 5_000, ratio: 1.066},
		{n: 256, bytes: 100, ratio: 1.082}, {n: 256, bytes: 1_000, ratio: 1.048}, {n: 256, bytes: 5_000, ratio: 1.050}},
}, {
	// The chunked allreduce's gather (F=4): the lane gather forced over
	// the segment leaders' (direct, every rank its own slice, where a
	// segment's slices pass one frame: from 8,000 B at N ≤ 16 and
	// 20,000 B beyond). Counting fragments instead of the lane region
	// (F·frags + 2·log2 S < S) would take N=256 at 8,000 B but lose four
	// others.
	name: "chunked allreduce: the lane gather over the leaders' or direct",
	k:    kind{}, op: opSliceGather, fanout: 4, with: laneGather, other: leadersGather,
	grid: `
N             100        2,000        8,000        20,000        65,536
8         817/793  1,427/1,422  4,311/3,729  10,102/8,948  32,465/29,123
16      1,066/1,014  1,780/1,654  5,049/4,257  11,580/9,823  36,633/31,807
32      1,371/1,374  2,161/2,033  5,558/4,774  12,410/10,542  39,200/33,648
64      1,828/2,070  2,628/2,712  6,095/5,207  13,132/11,155  40,521/34,233
128     2,487/3,277  3,301/3,960  7,438/7,117  15,366/13,465  41,731/35,662
256     3,411/5,447  4,403/6,347  8,544/9,449  17,236/16,107  50,554/44,517`,
	gaveUp: []cell{{n: 32, bytes: 100, ratio: 0.998}, {n: 256, bytes: 8_000, ratio: 0.904}},
	sample: &cell{n: 64, bytes: 100},
}, {
	// At the rule's edge, F + 2·log2 S = S (F=2, S=8), measured
	// 2026-10-20: the leaders' gather is faster.
	name: "chunked allreduce: the lane gather over the leaders', fanout 2",
	k:    kind{}, op: opSliceGather, fanout: 2, with: laneGather, other: leadersGather,
	grid: `
N            100        2,000
16     1,020/988  1,729/1,387`,
	sample: &cell{n: 16, bytes: 100},
}, {
	// At the rule's edge again (F=8, S=16), measured 2026-10-20: the
	// lane gather is faster below a frame per lane region and given up.
	name: "chunked allreduce: the lane gather over the leaders', fanout 8",
	k:    kind{}, op: opSliceGather, fanout: 8, with: laneGather, other: leadersGather,
	grid: `
N              100        2,000        8,000
128    2,813/3,025  4,515/4,582  10,601/9,862`,
	gaveUp: []cell{{n: 128, bytes: 100, ratio: 0.930}, {n: 128, bytes: 2_000, ratio: 0.985}},
}}

// cells parses the table's grid: a header of chunk sizes after "N", then
// one row per N.
func (sw sweep) cells(t *testing.T) map[[2]int]cell {
	t.Helper()
	num := func(s string) int64 {
		v, err := strconv.ParseInt(strings.ReplaceAll(s, ",", ""), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", sw.name, err)
		}
		return v
	}
	lines := strings.Split(strings.TrimSpace(sw.grid), "\n")
	head := strings.Fields(lines[0])[1:]
	out := map[[2]int]cell{}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != len(head)+1 {
			t.Fatalf("%s: row %q has %d cells, want %d", sw.name, line, len(f)-1, len(head))
		}
		for i, v := range f[1:] {
			c := cell{n: int(num(f[0])), bytes: int(num(head[i]))}
			switch a, b, pair := strings.Cut(v, "/"); {
			case v == "—":
				continue
			case pair:
				c.pair = [2]int64{num(a), num(b)}
				c.ratio = float64(c.pair[0]) / float64(c.pair[1])
			default:
				r, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("%s: %v", sw.name, err)
				}
				c.ratio = r
			}
			out[[2]int{c.n, c.bytes}] = c
		}
	}
	return out
}

// planned is what plan picks for the table's operation at n ranks and
// bytes per rank, rooted at rank 0, on the fabric the table measured.
func (sw sweep) planned(n, bytes int) schedule {
	return plan(sw.k, sw.op, sweepIn(n, bytes, sw.fanout))
}

// sweepIn is plan's input for one cell: the usable topology of the
// fabric, and the slice bounds of a byte buffer of bytes, as the
// chunked allreduce of the workload's mpi.Byte elements cuts it.
func sweepIn(n, bytes, fanout int) planIn {
	in := planIn{size: n, chunk: bytes, frag: simnet.MaxFragPayload, bounds: sliceBounds(bytes, 1, n)}
	if fanout > 0 {
		if t := topo.Uniform(n, fanout); t.Segments() > 1 && t.Segments() < n {
			in.t = t
		}
	}
	return in
}

// TestPlanMatchesSweeps holds plan to every table: in each cell it picks
// the faster schedule — with below 1.00, anything else above it, either
// at 1.00 — or the cell is one of the table's recorded give-ups, which
// carry the ratio the table reads. It runs no simulation.
func TestPlanMatchesSweeps(t *testing.T) {
	for _, sw := range sweeps {
		cells := sw.cells(t)
		gaveUp := map[[2]int]bool{}
		for _, g := range sw.gaveUp {
			c, ok := cells[[2]int{g.n, g.bytes}]
			if !ok || math.Abs(c.ratio-g.ratio) > 0.005 {
				t.Errorf("%s: give-up N=%d %d B reads %.3f in the table, %.3f in the list", sw.name, g.n, g.bytes, c.ratio, g.ratio)
			}
			gaveUp[[2]int{g.n, g.bytes}] = true
		}
		for key, c := range cells {
			picked := sw.planned(c.n, c.bytes) == sw.with
			wins := c.ratio < 1 && picked || c.ratio > 1 && !picked || c.ratio == 1
			if wins == gaveUp[key] {
				t.Errorf("%s: N=%d %d B reads %.3f, plan picks with=%v, recorded as given up: %v", sw.name, c.n, c.bytes, c.ratio, picked, gaveUp[key])
			}
		}
	}
}

// TestPlanTablesReproduce re-measures each table's sample cell in the
// simulator, so a table cannot go stale: the cell must read what the
// table prints, a ratio to two places or both sim-µs.
func TestPlanTablesReproduce(t *testing.T) {
	for _, sw := range sweeps {
		if sw.sample == nil {
			continue
		}
		c := sw.cells(t)[[2]int{sw.sample.n, sw.sample.bytes}]
		other := suite(kind{}, plan)
		if sw.other != flatSet {
			other = forced(sw.k, sw.op, sw.other)
		}
		with := coldNs(t, c.n, sw.fanout, forced(sw.k, sw.op, sw.with), sw.op, c.bytes)
		without := coldNs(t, c.n, sw.fanout, other, sw.op, c.bytes)
		got, want := fmt.Sprintf("%.2f", float64(with)/float64(without)), fmt.Sprintf("%.2f", c.ratio)
		if c.pair != [2]int64{} {
			got, want = fmt.Sprintf("%d/%d", (with+500)/1000, (without+500)/1000), fmt.Sprintf("%d/%d", c.pair[0], c.pair[1])
		}
		t.Logf("%s: N=%d %d B reads %s, the table %s", sw.name, c.n, c.bytes, got, want)
		if got != want {
			t.Errorf("%s: N=%d %d B reads %s, the table %s", sw.name, c.n, c.bytes, got, want)
		}
	}
}

// TestGatherFanInEdge holds plan's gather at the receive ring's edge,
// without a 500-rank simulation: two gathers' messages at the busiest
// receiver must fit the 255 the ring holds unposted. The flat gather's
// fan-in is N-1, so it runs point to point to N=128. At fanout 4 the
// two-level gather's root hears its 3 segment members and the S-1 other
// leaders: it fits to N=500 (S=125), and at N=501 a root in a full
// segment does not, while the singleton segment's root, with no
// members, still does.
func TestGatherFanInEdge(t *testing.T) {
	flat := func(n int) schedule { return plan(kind{}, opGather, planIn{size: n, chunk: 100}) }
	if flat(128) != pointToPoint || flat(129) != releaseGated {
		t.Error("the flat gather must run point to point at N=128 and release-gated at N=129")
	}
	for _, cs := range []struct {
		n, root, fanIn int
		want           schedule
	}{
		{500, 0, 127, nestedP2P},
		{500, 499, 127, nestedP2P},
		{501, 0, 128, releaseGated},
		{501, 500, 125, nestedP2P}, // the singleton segment's only rank
	} {
		tp := topo.Uniform(cs.n, 4)
		got := plan(kind{twoLevel: true}, opGather, planIn{t: tp, size: cs.n, chunk: 100, root: cs.root})
		if fanIn := twoLevelFanIn(tp, cs.root); fanIn != cs.fanIn || got != cs.want {
			t.Errorf("N=%d root %d: fan-in %d, plan %v; want %d, %v", cs.n, cs.root, fanIn, got, cs.fanIn, cs.want)
		}
	}
}

// forced returns the set of kind k with op run as schedule s, whatever
// plan picks; for the chunked allreduce's steps its Allreduce is the
// chunked one.
func forced(k kind, op operation, s schedule) mpi.Algorithms {
	pick := func(k kind, o operation, in planIn) schedule {
		if o == op {
			return s
		}
		return plan(k, o, in)
	}
	algs := suite(k, pick)
	if op == opSliceGather {
		algs.Allreduce = func(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
			return allreduceChunked(c, send, recv, dt, op, pick)
		}
	}
	return algs
}

// workloadOp is the workload that runs op.
var workloadOp = map[operation]workload.Op{
	opScatter: workload.OpScatter, opGather: workload.OpGather,
	opAlltoall: workload.OpAlltoall, opSliceGather: workload.OpAllreduce,
}

// coldNs runs one cold operation of algs (op, bytes per rank, root 0)
// on n ranks at seed 1 and returns the slowest rank's simulated ns.
func coldNs(t *testing.T, n, fanout int, algs mpi.Algorithms, op operation, bytes int) int64 {
	t.Helper()
	prof, fabric := simnet.DefaultProfile(), simnet.Switch
	prof.Seed = 1
	if fanout > 0 {
		prof.UplinkFanout, fabric = fanout, simnet.SwitchShared
	}
	var worst int64
	_, err := cluster.RunSim(n, fabric, prof, algs, func(c *mpi.Comm) error {
		start := c.Now()
		if err := workload.Make(c, workloadOp[op], bytes, 0)(); err != nil {
			return err
		}
		worst = max(worst, c.Now()-start)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return worst
}
