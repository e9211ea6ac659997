package core

// The planner: which schedule an operation runs is one pure function,
// plan, of values every rank of the operation holds the same — the set's
// kind, the operation, the usable topology, N, the chunk bytes, the root
// and the fragment payload — so every rank picks the same schedule
// without a message. The sets (suite) and the chunked allreduce switch
// on what plan returns, and nothing else chooses. The paper's multicast
// wins only past a crossover (about one frame in figures 7–10); the
// regimes below are where each schedule was measured to win. Every
// sweep they were read from is a table in plan_test.go:
// TestPlanMatchesSweeps holds plan to each cell's winner or to the
// cell's recorded give-up, and TestPlanTablesReproduce re-measures a
// sample.

import (
	"math/bits"

	"repro/internal/topo"
)

// kind is what tells the multicast sets apart: the scout gather of their
// rounds, whether every multicast runs under NACK repair, and whether
// they run the two-level schedules where there is a usable topology.
type kind struct {
	mode             Mode
	repair, twoLevel bool
}

// operation is a decision plan takes: a collective of the sets, or a
// step of the chunked allreduce.
type operation int

const (
	opScatter operation = iota
	opGather
	opAlltoall
	opAllreduce
	opReduceScatter // the chunked allreduce's reduce-scatter
	opSliceGather   // the chunked allreduce's allgather of reduced slices
)

// schedule is the way one operation runs, as plan picks it.
type schedule int

const (
	pointToPoint  schedule = iota // package baseline's linear scatter or gather
	slicedRound                   // scatterWith: a slice to each rank's slice group
	segmentRound                  // scatterWith over t: a block to each segment's group
	releaseGated                  // gatherWith: scouts and a release ahead of the chunks
	nestedP2P                     // gatherTwoLevel: member → leader → root
	flatBurst                     // alltoallWith: a slice to each rank's slice group
	segmentBurst                  // alltoallTwoLevel: a block to each segment's group
	reduceBcast                   // allreduceWith: a binomial reduce, then a broadcast round
	leaderReduce                  // allreduceTwoLevel: members, then leaders, then one fan-out
	rankWalks                     // one reduce-scatter walk per rank over all ranks
	laneHalving                   // segment walks, then a recursive halving along each lane
	laneWalks                     // segment walks, then a walk per slice along each lane
	directGather                  // gatherSlices: every rank multicasts its own slice
	leadersGather                 // gatherSlices: segment leaders multicast their members' slices
	laneGather                    // gatherLanes: segment 0 multicasts each lane's region
)

// planIn is what plan decides from.
type planIn struct {
	t                 *topo.Map // the usable topology (usableTopo), or nil
	size, chunk, root int       // N, the bytes per rank and the root
	// frag and bounds are the chunked allreduce's: the device's fragment
	// payload and the slice bounds by slice position (sliceBounds).
	frag   int
	bounds []int
}

// planner is plan's signature: the sets and the chunked allreduce run
// plan, and the tests a planner that forces one operation's schedule.
type planner func(kind, operation, planIn) schedule

// The regimes, each read from its table in plan_test.go:
//
//   - the flat burst alltoall beats the two-level one up to
//     flatAlltoallMaxN ranks from flatAlltoallMinBytes chunks (alltoall
//     table): N-1 slices that reach only their receiver beat blocks that
//     every member of a segment hears;
//   - the two-level scatter and gather win from twoLevelScatterMinN and
//     twoLevelGatherMinN ranks while every segment's block of chunks fits
//     twoLevelMaxBlock, one simulated frame's payload (two-level scatter
//     and gather tables);
//   - the flat sliced scatter wins on shared uplinks from
//     slicedScatterMinN ranks with chunks past one frame (sliced scatter
//     table), and only over the binary scout gather: N-1 linear scouts
//     converging on the root make it lose in every cell.
const (
	flatAlltoallMaxN      = 32
	flatAlltoallMinBytes  = 1_000
	twoLevelScatterMinN   = 32
	twoLevelGatherMinN    = 16
	twoLevelMaxBlock      = 1_424
	slicedScatterMinN     = 64
	slicedScatterMinBytes = 1_425
)

// plan returns the schedule operation op runs on a set of kind k.
//
// The gathers' first rule is not speed but the receive ring: a
// point-to-point gather runs only while two gathers' messages fit its
// busiest receiver's ring unposted, within burstRecvBudget. The
// receiver posts nothing before they arrive, and a rank that has sent
// goes straight on into the next operation, which can send it as much
// again. The flat fan-in is N-1 (N ≤ 128, TestGatherRingBound), past
// which the flat gather is release-gated; the two-level fan-in is
// twoLevelFanIn, to about N=500 at fanout 4 (TestGatherFanInEdge).
//
// The chunked allreduce reduce-scatters in two levels on segments of
// equal size, halving along the lanes where S is a power of two. Its
// gather goes by lanes where the lane step halved (the gather's evidence
// rests on it), lane 0's region, the largest, fits one fragment and
// F + 2·log2 S < S, counting critical-path receives: log2 S gather hops
// and F multicasts against S leaders' multicasts (lane tables). Else
// the leaders multicast their segment's slices where each segment's fit
// one fragment, and every rank its own slice where not: a leader would
// pay a store-and-forward hop on multi-frame slices.
func plan(k kind, op operation, in planIn) schedule {
	t, n := in.t, in.size
	twoLevel := k.twoLevel && t != nil
	blocksFit := twoLevel && in.chunk*largest(t) <= twoLevelMaxBlock
	switch {
	case op == opScatter && blocksFit && n >= twoLevelScatterMinN:
		return segmentRound
	case op == opScatter && k.mode == Binary && t != nil && n >= slicedScatterMinN && in.chunk >= slicedScatterMinBytes:
		return slicedRound
	case op == opGather && blocksFit && n >= twoLevelGatherMinN && 2*twoLevelFanIn(t, in.root) <= burstRecvBudget:
		return nestedP2P
	case op == opScatter || op == opGather && 2*(n-1) <= burstRecvBudget:
		return pointToPoint
	case op == opGather:
		return releaseGated
	case op == opAlltoall && twoLevel && !k.repair && (n > flatAlltoallMaxN || in.chunk < flatAlltoallMinBytes):
		return segmentBurst
	case op == opAlltoall:
		return flatBurst
	case op == opAllreduce && twoLevel:
		return leaderReduce
	case op == opAllreduce:
		return reduceBcast
	case op == opReduceScatter && (t == nil || largest(t)*t.Segments() != t.Ranks()):
		return rankWalks
	case op == opReduceScatter && t.Segments()&(t.Segments()-1) == 0:
		return laneHalving
	case op == opReduceScatter:
		return laneWalks
	case t == nil: // opSliceGather from here on
		return directGather
	}
	segs, step := t.Segments(), plan(k, opReduceScatter, in)
	if step == laneHalving && in.bounds[segs] <= in.frag && largest(t)+2*bits.TrailingZeros(uint(segs)) < segs {
		return laneGather
	}
	pos := slicePos(t, n, step)
	for s := range segs {
		bytes := 0
		for _, r := range t.Members(s) {
			bytes += in.bounds[pos[r]+1] - in.bounds[pos[r]]
		}
		if bytes > in.frag {
			return directGather
		}
	}
	return leadersGather
}

// largest returns the member count of t's largest segment.
func largest(t *topo.Map) int {
	f := 0
	for s := range t.Segments() {
		f = max(f, len(t.Members(s)))
	}
	return f
}

// twoLevelFanIn is the most messages one rank hears in a two-level
// gather over t rooted at root: the root hears its segment's other
// members and the S-1 other leaders, another leader its segment's other
// members.
func twoLevelFanIn(t *topo.Map, root int) int {
	return max(len(t.Members(t.SegmentOf(root)))-1+t.Segments()-1, largest(t)-1)
}
