package core

// The phases the chunked allreduce's point-to-point traffic travels in,
// for tests that count its frames by phase (mpi.CollPhase).
const (
	PhaseChunk = phaseChunk // a member's reduced slice, sent to its segment leader
	PhaseSlice = phaseSlice // the first reduce-scatter walk; later walks follow it
)

// The schedules the regime tests expect a collective to name in its
// "plan" trace instant (trace.Event.Arg).
const (
	PlanPointToPoint = int64(pointToPoint)
	PlanSlicedRound  = int64(slicedRound)
	PlanSegmentRound = int64(segmentRound)
	PlanNestedP2P    = int64(nestedP2P)
)
