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
	"repro/internal/trace"
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
	// others. Re-measured when the segment step came to halve below
	// 20,000 B; the cells below it moved (N=32 at 100 B read
	// 1,371/1,374, given up at 0.998, and N=256 at 8,000 B 8,544/9,449,
	// 0.904), those from 20,000 B did not.
	name: "chunked allreduce: the lane gather over the leaders' or direct",
	k:    kind{}, op: opSliceGather, fanout: 4, with: laneGather, other: leadersGather,
	grid: `
N              100        2,000        8,000         20,000         65,536
8          753/710  1,390/1,385  4,279/3,697   10,102/8,948  32,465/29,123
16       1,009/930  1,743/1,610  5,013/4,220   11,580/9,823  36,633/31,807
32     1,334/1,310  2,123/1,993  5,522/4,737  12,410/10,542  39,200/33,648
64     1,785/1,997  2,590/2,673  6,058/5,187  13,132/11,155  40,521/34,233
128    2,451/3,241  3,264/3,923  7,381/7,091  15,366/13,465  41,731/35,662
256    3,393/5,429  4,367/6,310  8,476/9,434  17,236/16,107  50,554/44,517`,
	gaveUp: []cell{{n: 256, bytes: 8_000, ratio: 0.898}},
	sample: &cell{n: 64, bytes: 100},
}, {
	// At the rule's edge, F + 2·log2 S = S (F=2, S=8), measured
	// 2026-10-20: the leaders' gather is faster. At F=2 the segment
	// step's halving and walks send the same one message.
	name: "chunked allreduce: the lane gather over the leaders', fanout 2",
	k:    kind{}, op: opSliceGather, fanout: 2, with: laneGather, other: leadersGather,
	grid: `
N            100        2,000
16     1,020/988  1,729/1,387`,
	sample: &cell{n: 16, bytes: 100},
}, {
	// At the rule's edge again (F=8, S=16): the lane gather is faster
	// below a frame per lane region and given up. Re-measured when the
	// segment step came to halve; it read 2,813/3,025, 4,515/4,582 and
	// 10,601/9,862.
	name: "chunked allreduce: the lane gather over the leaders', fanout 8",
	k:    kind{}, op: opSliceGather, fanout: 8, with: laneGather, other: leadersGather,
	grid: `
N              100        2,000         8,000
128    2,577/2,831  4,189/4,338  10,434/9,723`,
	gaveUp: []cell{{n: 128, bytes: 100, ratio: 0.910}, {n: 128, bytes: 2_000, ratio: 0.966}},
}, {
	// The two-level reduce-scatter's segment step, halving forced over
	// walks (F=4): log2 F messages per rank win below 20,000 B; from
	// there a segment's F-1 walk messages, which go to different members,
	// beat halving's larger sequential ones, except at N=256 and
	// 65,536 B. Seed 7 read the same.
	name: "chunked allreduce: the segment step halving over walks",
	k:    kind{}, op: opSegmentStep, fanout: 4, with: segmentHalving, other: segmentWalks,
	grid: `
N              100        2,000        8,000         20,000         65,536
8          710/793  1,385/1,422  3,697/3,729    9,398/8,948  30,770/29,123
16       930/1,014  1,610/1,654  4,220/4,257   10,246/9,823  33,454/31,807
32     1,310/1,374  1,993/2,033  4,737/4,774  10,892/10,542  35,119/33,648
64     1,785/1,828  2,590/2,628  5,187/5,207  11,301/11,155  35,708/34,233
128    2,451/2,487  3,264/3,301  7,091/7,117  14,091/13,465  36,853/35,662
256    3,393/3,411  4,367/4,403  9,434/9,449  16,180/16,107  39,181/44,517`,
	gaveUp: []cell{{n: 256, bytes: 65_536, ratio: 0.880}},
	sample: &cell{n: 16, bytes: 2_000},
}, {
	// The same at F=8, where halving sends 3 messages per rank in place
	// of 7 and wins by up to 20 % at 100 B. From 20,000 B the walks win
	// up to N=64; at N=128 and 256 halving still does, given up for one
	// edge at every F. Seed 7 read the same.
	name: "chunked allreduce: the segment step halving over walks, fanout 8",
	k:    kind{}, op: opSegmentStep, fanout: 8, with: segmentHalving, other: segmentWalks,
	grid: `
N              100        2,000          8,000         20,000         65,536
16     1,153/1,450  2,489/2,774    6,766/6,839  16,294/15,988  53,171/51,774
32     1,499/1,766  2,821/3,110    7,972/8,045  17,426/17,180  56,231/55,019
64     2,040/2,298  3,391/3,638    8,158/8,198  19,076/19,046  57,626/56,630
128    2,831/3,025  4,338/4,582    9,723/9,862  19,297/21,005  59,172/58,889
256    3,433/3,579  5,352/5,751  11,695/11,779  22,996/23,131  66,506/69,746`,
	gaveUp: []cell{{n: 128, bytes: 20_000, ratio: 0.919}, {n: 256, bytes: 20_000, ratio: 0.994}, {n: 256, bytes: 65_536, ratio: 0.954}},
	sample: &cell{n: 16, bytes: 100},
}, {
	// The lossless sets' allreduce (plan's chunkedSlices): the chunked
	// schedule forced over the flat sets' binomial reduce and broadcast,
	// on the shared-uplink switch at fanout 2, 4 and 8, measured
	// 2026-10-20. Seed 7 read the same in every cell of the nine allreduce
	// tables. The chunked schedule runs on even segments past one frame;
	// below a frame the reduce and broadcast are fewer messages. Given
	// up: on even segments at 500 and 1,000 B, where the chunked schedule
	// wins at F ≤ 4 by up to 1.38× but loses by up to 1.23× where the lane
	// step walks (S not a power of two) and at F=8; on uneven segments,
	// where the flat walks of the chunked schedule win from 5,000 B by up
	// to 1.77× (at fanout 2 from 1,500 B, at fanout 8 mostly from
	// 20,000 B) but lose by up to 1.48× at 1,500 and 2,000 B at fanout 4
	// and 8; and with one segment (fanout 8, N ≤ 8), a fabric the sets
	// treat as unsegmented.
	name: "allreduce: the chunked schedule over the binomial reduce and broadcast, fanout 2",
	k:    kind{}, op: opAllreduce, fanout: 2, with: chunkedSlices, other: reduceBcast,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       0.947   0.757   0.602   0.617   0.568   0.584   0.669   0.676
7       1.186   1.037   0.844   0.836   0.696   0.695   0.766   0.735
8       0.936   0.726   0.591   0.588   0.595   0.597   0.650   0.687
12      1.120   0.843   0.636   0.620   0.559   0.558   0.597   0.560
16      1.035   0.818   0.636   0.611   0.521   0.543   0.548   0.572
17      1.903   1.371   1.022   0.926   0.661   0.622   0.566   0.592
18      1.365   1.007   0.773   0.726   0.569   0.556   0.542   0.565
24      1.598   1.164   0.865   0.811   0.556   0.513   0.475   0.476
32      1.179   0.972   0.779   0.765   0.532   0.485   0.484   0.505
64      1.151   0.964   0.799   0.777   0.632   0.537   0.431   0.429
128     1.121   0.950   0.767   0.727   0.731   0.649   0.483   0.383
256     1.091   0.942   0.790   0.750   1.000   0.798   0.549   0.415`,
	gaveUp: []cell{{n: 6, bytes: 500, ratio: 0.947}, {n: 6, bytes: 1_000, ratio: 0.757},
		{n: 7, bytes: 1_500, ratio: 0.844}, {n: 7, bytes: 2_000, ratio: 0.836}, {n: 7, bytes: 5_000, ratio: 0.696},
		{n: 7, bytes: 8_000, ratio: 0.695}, {n: 7, bytes: 20_000, ratio: 0.766},
		{n: 7, bytes: 65_536, ratio: 0.735}, {n: 8, bytes: 500, ratio: 0.936}, {n: 8, bytes: 1_000, ratio: 0.726},
		{n: 12, bytes: 1_000, ratio: 0.843}, {n: 16, bytes: 1_000, ratio: 0.818},
		{n: 17, bytes: 2_000, ratio: 0.926}, {n: 17, bytes: 5_000, ratio: 0.661},
		{n: 17, bytes: 8_000, ratio: 0.622}, {n: 17, bytes: 20_000, ratio: 0.566},
		{n: 17, bytes: 65_536, ratio: 0.592}, {n: 32, bytes: 1_000, ratio: 0.972},
		{n: 64, bytes: 1_000, ratio: 0.964}, {n: 128, bytes: 1_000, ratio: 0.950},
		{n: 256, bytes: 1_000, ratio: 0.942}},
	sample: &cell{n: 32, bytes: 20_000},
}, {
	// The same at fanout 4, the fabric of sim_scale_n256.
	name: "allreduce: the chunked schedule over the binomial reduce and broadcast, fanout 4",
	k:    kind{}, op: opAllreduce, fanout: 4, with: chunkedSlices, other: reduceBcast,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       1.166   1.127   1.008   1.071   0.907   0.896   0.951   0.949
7       1.233   1.183   1.061   1.128   0.908   0.890   0.949   0.934
8       0.939   0.828   0.726   0.744   0.676   0.696   0.722   0.746
12      1.021   0.862   0.723   0.740   0.670   0.656   0.680   0.673
16      0.945   0.820   0.693   0.690   0.671   0.647   0.650   0.671
17      1.839   1.444   1.132   1.058   0.908   0.832   0.766   0.785
18      1.996   1.559   1.209   1.129   0.918   0.851   0.774   0.799
24      1.197   0.976   0.788   0.769   0.668   0.645   0.599   0.602
32      1.116   0.904   0.734   0.709   0.621   0.610   0.591   0.603
64      1.176   0.986   0.818   0.789   0.694   0.578   0.541   0.533
128     1.142   0.938   0.761   0.722   0.665   0.635   0.573   0.491
256     1.107   0.920   0.766   0.725   0.633   0.713   0.561   0.547`,
	gaveUp: []cell{{n: 6, bytes: 5_000, ratio: 0.907}, {n: 6, bytes: 8_000, ratio: 0.896},
		{n: 6, bytes: 20_000, ratio: 0.951}, {n: 6, bytes: 65_536, ratio: 0.949},
		{n: 7, bytes: 5_000, ratio: 0.908}, {n: 7, bytes: 8_000, ratio: 0.890},
		{n: 7, bytes: 20_000, ratio: 0.949}, {n: 7, bytes: 65_536, ratio: 0.934}, {n: 8, bytes: 500, ratio: 0.939},
		{n: 8, bytes: 1_000, ratio: 0.828}, {n: 12, bytes: 1_000, ratio: 0.862}, {n: 16, bytes: 500, ratio: 0.945},
		{n: 16, bytes: 1_000, ratio: 0.820}, {n: 17, bytes: 5_000, ratio: 0.908},
		{n: 17, bytes: 8_000, ratio: 0.832}, {n: 17, bytes: 20_000, ratio: 0.766},
		{n: 17, bytes: 65_536, ratio: 0.785}, {n: 18, bytes: 5_000, ratio: 0.918},
		{n: 18, bytes: 8_000, ratio: 0.851}, {n: 18, bytes: 20_000, ratio: 0.774},
		{n: 18, bytes: 65_536, ratio: 0.799}, {n: 24, bytes: 1_000, ratio: 0.976},
		{n: 32, bytes: 1_000, ratio: 0.904}, {n: 64, bytes: 1_000, ratio: 0.986},
		{n: 128, bytes: 1_000, ratio: 0.938}, {n: 256, bytes: 1_000, ratio: 0.920}},
	sample: &cell{n: 16, bytes: 2_000},
}, {
	// The same at fanout 8.
	name: "allreduce: the chunked schedule over the binomial reduce and broadcast, fanout 8",
	k:    kind{}, op: opAllreduce, fanout: 8, with: chunkedSlices, other: reduceBcast,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       1.581   1.519   1.172   1.178   0.981   0.912   0.881   0.860
7       1.773   1.649   1.284   1.344   1.076   0.987   0.943   0.906
8       1.931   1.676   1.345   1.322   1.047   0.962   0.890   0.875
12      1.914   1.672   1.372   1.382   1.052   0.994   1.002   0.973
16      1.160   1.050   0.900   0.916   0.834   0.811   0.793   0.805
17      2.122   1.803   1.462   1.438   1.138   1.033   0.892   0.902
18      2.261   1.866   1.480   1.454   1.165   1.050   0.932   0.939
24      1.277   1.127   0.916   0.932   0.870   0.813   0.751   0.754
32      1.238   1.057   0.877   0.884   0.810   0.833   0.751   0.757
64      1.344   1.147   0.938   0.924   0.782   0.753   0.741   0.699
128     1.373   1.142   0.941   0.900   0.779   0.737   0.715   0.658
256     1.178   1.023   0.870   0.846   0.789   0.766   0.683   0.726`,
	gaveUp: []cell{{n: 6, bytes: 5_000, ratio: 0.981}, {n: 6, bytes: 8_000, ratio: 0.912},
		{n: 6, bytes: 20_000, ratio: 0.881}, {n: 6, bytes: 65_536, ratio: 0.860},
		{n: 7, bytes: 8_000, ratio: 0.987}, {n: 7, bytes: 20_000, ratio: 0.943},
		{n: 7, bytes: 65_536, ratio: 0.906}, {n: 8, bytes: 8_000, ratio: 0.962},
		{n: 8, bytes: 20_000, ratio: 0.890}, {n: 8, bytes: 65_536, ratio: 0.875},
		{n: 12, bytes: 8_000, ratio: 0.994}, {n: 12, bytes: 65_536, ratio: 0.973},
		{n: 17, bytes: 20_000, ratio: 0.892}, {n: 17, bytes: 65_536, ratio: 0.902},
		{n: 18, bytes: 20_000, ratio: 0.932}, {n: 18, bytes: 65_536, ratio: 0.939}},
	sample: &cell{n: 32, bytes: 5_000},
}, {
	// The two-level set's allreduce: the chunked schedule over the
	// leaders' reduce and fan-out (allreduceTwoLevel), fanout 2.
	name: "allreduce: the chunked schedule over the leaders' reduce, fanout 2",
	k:    kind{twoLevel: true}, op: opAllreduce, fanout: 2, with: chunkedSlices, other: leaderReduce,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       1.080   0.831   0.642   0.654   0.586   0.596   0.675   0.678
7       1.365   1.097   0.880   0.867   0.711   0.707   0.769   0.737
8       0.988   0.754   0.608   0.603   0.604   0.603   0.652   0.688
12      1.238   0.904   0.668   0.647   0.572   0.567   0.601   0.561
16      1.080   0.844   0.650   0.623   0.527   0.547   0.550   0.573
17      1.987   1.414   1.045   0.944   0.668   0.627   0.568   0.592
18      1.429   1.038   0.790   0.740   0.575   0.560   0.544   0.566
24      1.736   1.234   0.901   0.840   0.566   0.520   0.478   0.477
32      1.230   0.998   0.794   0.778   0.537   0.488   0.485   0.505
64      1.187   0.987   0.813   0.790   0.637   0.540   0.432   0.429
128     1.147   0.967   0.778   0.736   0.737   0.652   0.484   0.384
256     1.108   0.955   0.799   0.758   1.007   0.802   0.550   0.415`,
	gaveUp: []cell{{n: 6, bytes: 1_000, ratio: 0.831}, {n: 7, bytes: 1_500, ratio: 0.880},
		{n: 7, bytes: 2_000, ratio: 0.867}, {n: 7, bytes: 5_000, ratio: 0.711}, {n: 7, bytes: 8_000, ratio: 0.707},
		{n: 7, bytes: 20_000, ratio: 0.769}, {n: 7, bytes: 65_536, ratio: 0.737}, {n: 8, bytes: 500, ratio: 0.988},
		{n: 8, bytes: 1_000, ratio: 0.754}, {n: 12, bytes: 1_000, ratio: 0.904},
		{n: 16, bytes: 1_000, ratio: 0.844}, {n: 17, bytes: 2_000, ratio: 0.944},
		{n: 17, bytes: 5_000, ratio: 0.668}, {n: 17, bytes: 8_000, ratio: 0.627},
		{n: 17, bytes: 20_000, ratio: 0.568}, {n: 17, bytes: 65_536, ratio: 0.592},
		{n: 32, bytes: 1_000, ratio: 0.998}, {n: 64, bytes: 1_000, ratio: 0.987},
		{n: 128, bytes: 1_000, ratio: 0.967}, {n: 256, bytes: 1_000, ratio: 0.955},
		{n: 256, bytes: 5_000, ratio: 1.007}},
	sample: &cell{n: 8, bytes: 5_000},
}, {
	// The same at fanout 4.
	name: "allreduce: the chunked schedule over the leaders' reduce, fanout 4",
	k:    kind{twoLevel: true}, op: opAllreduce, fanout: 4, with: chunkedSlices, other: leaderReduce,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       1.535   1.388   1.193   1.236   0.932   0.913   0.937   0.923
7       1.499   1.310   1.097   1.194   0.998   0.983   1.030   1.007
8       1.126   0.953   0.765   0.815   0.712   0.724   0.726   0.747
12      1.269   1.016   0.775   0.820   0.709   0.683   0.686   0.673
16      1.091   0.916   0.722   0.742   0.700   0.668   0.653   0.671
17      2.122   1.613   1.179   1.136   0.947   0.859   0.770   0.790
18      2.303   1.742   1.260   1.213   0.957   0.878   0.778   0.801
24      1.431   1.117   0.834   0.835   0.699   0.667   0.603   0.603
32      1.255   0.993   0.762   0.755   0.643   0.626   0.594   0.603
64      1.229   1.020   0.845   0.820   0.718   0.591   0.543   0.534
128     1.179   0.993   0.804   0.760   0.695   0.662   0.597   0.492
256     1.131   0.979   0.818   0.776   0.656   0.738   0.580   0.556`,
	gaveUp: []cell{{n: 6, bytes: 5_000, ratio: 0.932}, {n: 6, bytes: 8_000, ratio: 0.913},
		{n: 6, bytes: 20_000, ratio: 0.937}, {n: 6, bytes: 65_536, ratio: 0.923},
		{n: 7, bytes: 5_000, ratio: 0.998}, {n: 7, bytes: 8_000, ratio: 0.983}, {n: 8, bytes: 1_000, ratio: 0.953},
		{n: 16, bytes: 1_000, ratio: 0.916}, {n: 17, bytes: 5_000, ratio: 0.947},
		{n: 17, bytes: 8_000, ratio: 0.859}, {n: 17, bytes: 20_000, ratio: 0.770},
		{n: 17, bytes: 65_536, ratio: 0.790}, {n: 18, bytes: 5_000, ratio: 0.957},
		{n: 18, bytes: 8_000, ratio: 0.878}, {n: 18, bytes: 20_000, ratio: 0.778},
		{n: 18, bytes: 65_536, ratio: 0.801}, {n: 32, bytes: 1_000, ratio: 0.993},
		{n: 128, bytes: 1_000, ratio: 0.993}, {n: 256, bytes: 1_000, ratio: 0.979}},
	sample: &cell{n: 64, bytes: 2_000},
}, {
	// The same at fanout 8. With one segment (N ≤ 8) the set runs the
	// flat set's allreduce, in the binary table. N=128 at 1,500 B is the
	// one cell of the regime the chunked schedule loses.
	name: "allreduce: the chunked schedule over the leaders' reduce, fanout 8",
	k:    kind{twoLevel: true}, op: opAllreduce, fanout: 8, with: chunkedSlices, other: leaderReduce,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6           —       —       —       —       —       —       —       —
7           —       —       —       —       —       —       —       —
8           —       —       —       —       —       —       —       —
12      2.419   1.944   1.391   1.495   1.104   1.039   0.962   0.928
16      1.387   1.198   0.888   0.963   0.844   0.810   0.765   0.776
17      2.539   2.057   1.443   1.512   1.151   1.033   0.892   0.909
18      2.705   2.128   1.460   1.529   1.178   1.050   0.900   0.917
24      1.622   1.309   0.921   0.992   0.886   0.816   0.728   0.729
32      1.441   1.183   0.872   0.923   0.821   0.832   0.727   0.732
64      1.433   1.203   0.936   0.961   0.793   0.756   0.717   0.678
128     1.439   1.223   1.036   0.983   0.837   0.788   0.747   0.641
256     1.246   1.099   0.934   0.904   0.838   0.812   0.719   0.708`,
	gaveUp: []cell{{n: 12, bytes: 20_000, ratio: 0.962}, {n: 12, bytes: 65_536, ratio: 0.928},
		{n: 17, bytes: 20_000, ratio: 0.892}, {n: 17, bytes: 65_536, ratio: 0.909},
		{n: 18, bytes: 20_000, ratio: 0.900}, {n: 18, bytes: 65_536, ratio: 0.917},
		{n: 128, bytes: 1_500, ratio: 1.036}},
	sample: &cell{n: 16, bytes: 2_000},
}, {
	// The linear set's allreduce: the chunked schedule over the binomial
	// reduce and a broadcast round whose scouts gather linearly, fanout 2.
	// The chunked schedule is the binary table's; the linear scout gather
	// makes the old schedule slower as N grows, so in the regime the
	// chunked schedule wins every cell. Below a frame it wins too at
	// every N from 32 (and at some below), by up to 3.65× at N=256: those
	// cells are given up, for one edge in every lossless set.
	name: "allreduce: the chunked schedule over the linear binomial reduce and broadcast, fanout 2",
	k:    kind{mode: Linear}, op: opAllreduce, fanout: 2, with: chunkedSlices, other: reduceBcast,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       0.947   0.757   0.602   0.617   0.568   0.584   0.669   0.676
7       1.208   1.037   0.844   0.836   0.698   0.697   0.766   0.735
8       0.936   0.726   0.591   0.588   0.595   0.597   0.650   0.687
12      1.038   0.843   0.636   0.620   0.559   0.558   0.597   0.560
16      0.914   0.818   0.636   0.611   0.521   0.543   0.548   0.572
17      1.502   1.323   1.022   0.926   0.661   0.622   0.566   0.591
18      1.072   0.991   0.773   0.726   0.569   0.556   0.542   0.563
24      1.113   1.040   0.865   0.811   0.556   0.513   0.475   0.475
32      0.744   0.783   0.779   0.765   0.532   0.485   0.484   0.505
64      0.531   0.562   0.572   0.604   0.632   0.537   0.431   0.429
128     0.377   0.396   0.407   0.427   0.672   0.649   0.483   0.383
256     0.276   0.285   0.295   0.306   0.630   0.658   0.548   0.415`,
	gaveUp: []cell{{n: 6, bytes: 500, ratio: 0.947}, {n: 6, bytes: 1_000, ratio: 0.757},
		{n: 7, bytes: 1_500, ratio: 0.844}, {n: 7, bytes: 2_000, ratio: 0.836}, {n: 7, bytes: 5_000, ratio: 0.698},
		{n: 7, bytes: 8_000, ratio: 0.697}, {n: 7, bytes: 20_000, ratio: 0.766},
		{n: 7, bytes: 65_536, ratio: 0.735}, {n: 8, bytes: 500, ratio: 0.936}, {n: 8, bytes: 1_000, ratio: 0.726},
		{n: 12, bytes: 1_000, ratio: 0.843}, {n: 16, bytes: 500, ratio: 0.914},
		{n: 16, bytes: 1_000, ratio: 0.818}, {n: 17, bytes: 2_000, ratio: 0.926},
		{n: 17, bytes: 5_000, ratio: 0.661}, {n: 17, bytes: 8_000, ratio: 0.622},
		{n: 17, bytes: 20_000, ratio: 0.566}, {n: 17, bytes: 65_536, ratio: 0.591},
		{n: 18, bytes: 1_000, ratio: 0.991}, {n: 32, bytes: 500, ratio: 0.744},
		{n: 32, bytes: 1_000, ratio: 0.783}, {n: 64, bytes: 500, ratio: 0.531},
		{n: 64, bytes: 1_000, ratio: 0.562}, {n: 128, bytes: 500, ratio: 0.377},
		{n: 128, bytes: 1_000, ratio: 0.396}, {n: 256, bytes: 500, ratio: 0.276},
		{n: 256, bytes: 1_000, ratio: 0.285}},
	sample: &cell{n: 18, bytes: 1_500},
}, {
	// The same at fanout 4.
	name: "allreduce: the chunked schedule over the linear binomial reduce and broadcast, fanout 4",
	k:    kind{mode: Linear}, op: opAllreduce, fanout: 4, with: chunkedSlices, other: reduceBcast,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       1.206   1.139   1.008   1.071   0.907   0.896   0.951   0.949
7       1.247   1.187   1.061   1.128   0.908   0.890   0.949   0.933
8       0.939   0.828   0.726   0.744   0.676   0.696   0.722   0.745
12      0.930   0.862   0.723   0.740   0.670   0.656   0.680   0.670
16      0.828   0.820   0.693   0.690   0.671   0.647   0.650   0.670
17      1.455   1.320   1.127   1.058   0.908   0.832   0.766   0.782
18      1.561   1.482   1.209   1.129   0.918   0.851   0.774   0.799
24      0.838   0.821   0.788   0.769   0.668   0.645   0.599   0.601
32      0.705   0.710   0.681   0.695   0.621   0.610   0.591   0.602
64      0.521   0.544   0.552   0.578   0.694   0.578   0.541   0.533
128     0.373   0.389   0.399   0.418   0.558   0.635   0.573   0.491
256     0.274   0.284   0.292   0.304   0.395   0.544   0.559   0.547`,
	gaveUp: []cell{{n: 6, bytes: 5_000, ratio: 0.907}, {n: 6, bytes: 8_000, ratio: 0.896},
		{n: 6, bytes: 20_000, ratio: 0.951}, {n: 6, bytes: 65_536, ratio: 0.949},
		{n: 7, bytes: 5_000, ratio: 0.908}, {n: 7, bytes: 8_000, ratio: 0.890},
		{n: 7, bytes: 20_000, ratio: 0.949}, {n: 7, bytes: 65_536, ratio: 0.933}, {n: 8, bytes: 500, ratio: 0.939},
		{n: 8, bytes: 1_000, ratio: 0.828}, {n: 12, bytes: 500, ratio: 0.930}, {n: 12, bytes: 1_000, ratio: 0.862},
		{n: 16, bytes: 500, ratio: 0.828}, {n: 16, bytes: 1_000, ratio: 0.820},
		{n: 17, bytes: 5_000, ratio: 0.908}, {n: 17, bytes: 8_000, ratio: 0.832},
		{n: 17, bytes: 20_000, ratio: 0.766}, {n: 17, bytes: 65_536, ratio: 0.782},
		{n: 18, bytes: 5_000, ratio: 0.918}, {n: 18, bytes: 8_000, ratio: 0.851},
		{n: 18, bytes: 20_000, ratio: 0.774}, {n: 18, bytes: 65_536, ratio: 0.799},
		{n: 24, bytes: 500, ratio: 0.838}, {n: 24, bytes: 1_000, ratio: 0.821}, {n: 32, bytes: 500, ratio: 0.705},
		{n: 32, bytes: 1_000, ratio: 0.710}, {n: 64, bytes: 500, ratio: 0.521},
		{n: 64, bytes: 1_000, ratio: 0.544}, {n: 128, bytes: 500, ratio: 0.373},
		{n: 128, bytes: 1_000, ratio: 0.389}, {n: 256, bytes: 500, ratio: 0.274},
		{n: 256, bytes: 1_000, ratio: 0.284}},
	sample: &cell{n: 16, bytes: 5_000},
}, {
	// The same at fanout 8.
	name: "allreduce: the chunked schedule over the linear binomial reduce and broadcast, fanout 8",
	k:    kind{mode: Linear}, op: opAllreduce, fanout: 8, with: chunkedSlices, other: reduceBcast,
	grid: `
N         500   1,000   1,500   2,000   5,000   8,000  20,000  65,536
6       1.588   1.530   1.172   1.185   0.981   0.912   0.881   0.859
7       1.690   1.609   1.285   1.351   1.076   0.987   0.943   0.906
8       1.881   1.676   1.345   1.322   1.047   0.962   0.890   0.875
12      1.654   1.631   1.378   1.382   1.052   0.994   1.002   0.972
16      0.987   1.048   0.900   0.916   0.834   0.811   0.793   0.805
17      1.694   1.637   1.424   1.430   1.138   1.030   0.891   0.901
18      1.753   1.679   1.432   1.408   1.165   1.048   0.930   0.938
24      0.943   0.977   0.910   0.932   0.870   0.813   0.751   0.752
32      0.810   0.824   0.813   0.865   0.810   0.833   0.751   0.756
64      0.612   0.640   0.648   0.674   0.782   0.753   0.741   0.698
128     0.459   0.483   0.496   0.519   0.659   0.737   0.686   0.658
256     0.304   0.322   0.336   0.359   0.482   0.604   0.657   0.724`,
	gaveUp: []cell{{n: 6, bytes: 5_000, ratio: 0.981}, {n: 6, bytes: 8_000, ratio: 0.912},
		{n: 6, bytes: 20_000, ratio: 0.881}, {n: 6, bytes: 65_536, ratio: 0.859},
		{n: 7, bytes: 8_000, ratio: 0.987}, {n: 7, bytes: 20_000, ratio: 0.943},
		{n: 7, bytes: 65_536, ratio: 0.906}, {n: 8, bytes: 8_000, ratio: 0.962},
		{n: 8, bytes: 20_000, ratio: 0.890}, {n: 8, bytes: 65_536, ratio: 0.875},
		{n: 12, bytes: 8_000, ratio: 0.994}, {n: 12, bytes: 65_536, ratio: 0.972},
		{n: 16, bytes: 500, ratio: 0.987}, {n: 17, bytes: 20_000, ratio: 0.891},
		{n: 17, bytes: 65_536, ratio: 0.901}, {n: 18, bytes: 20_000, ratio: 0.930},
		{n: 18, bytes: 65_536, ratio: 0.938}, {n: 24, bytes: 500, ratio: 0.943},
		{n: 24, bytes: 1_000, ratio: 0.977}, {n: 32, bytes: 500, ratio: 0.810},
		{n: 32, bytes: 1_000, ratio: 0.824}, {n: 64, bytes: 500, ratio: 0.612},
		{n: 64, bytes: 1_000, ratio: 0.640}, {n: 128, bytes: 500, ratio: 0.459},
		{n: 128, bytes: 1_000, ratio: 0.483}, {n: 256, bytes: 500, ratio: 0.304},
		{n: 256, bytes: 1_000, ratio: 0.322}},
	sample: &cell{n: 128, bytes: 1_500},
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
// chunked one, whatever the size.
func forced(k kind, op operation, s schedule) mpi.Algorithms {
	pick := func(k kind, o operation, in planIn) schedule {
		if o == op {
			return s
		}
		return plan(k, o, in)
	}
	algs := suite(k, pick)
	if op == opSegmentStep || op == opSliceGather {
		algs.Allreduce = func(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
			return allreduceChunked(c, send, recv, dt, op, pick)
		}
	}
	return algs
}

// workloadOp is the workload that runs op.
var workloadOp = map[operation]workload.Op{
	opScatter: workload.OpScatter, opGather: workload.OpGather,
	opAlltoall: workload.OpAlltoall, opAllreduce: workload.OpAllreduce,
	opSegmentStep: workload.OpAllreduce, opSliceGather: workload.OpAllreduce,
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

// TestPlanIsTraced holds the choice visible: every rank of a planned
// collective records one "plan" trace instant whose argument is the
// schedule, and mcast-binary's allreduce on even segments (N=8, fanout
// 4) names the binomial reduce and broadcast at 100 B and the chunked
// schedule at 2,000 B.
func TestPlanIsTraced(t *testing.T) {
	for _, tc := range []struct {
		bytes int
		want  schedule
	}{{100, reduceBcast}, {2_000, chunkedSlices}} {
		prof := simnet.DefaultProfile()
		prof.UplinkFanout = 4
		prof.Trace = trace.NewRecorder()
		_, err := cluster.RunSim(8, simnet.SwitchShared, prof, Algorithms(Binary), func(c *mpi.Comm) error {
			return workload.Make(c, workload.OpAllreduce, tc.bytes, 0)()
		})
		if err != nil {
			t.Fatal(err)
		}
		ranks := map[int32]int{}
		for _, e := range prof.Trace.Events() {
			if e.Kind == trace.Instant && e.Name == "plan" {
				ranks[e.Rank]++
				if schedule(e.Arg) != tc.want {
					t.Errorf("%d B: rank %d planned %d, want %d", tc.bytes, e.Rank, e.Arg, tc.want)
				}
			}
		}
		for r := range int32(8) {
			if ranks[r] != 1 {
				t.Errorf("%d B: rank %d recorded %d plan instants, want 1", tc.bytes, r, ranks[r])
			}
		}
	}
}
