package core

// The phases the chunked allreduce's point-to-point traffic travels in,
// for tests that count its frames by phase (mpi.CollPhase).
const (
	PhaseChunk = phaseChunk // a member's reduced slice, sent to its segment leader
	PhaseSlice = phaseSlice // the first reduce-scatter walk; later walks follow it
)

// The gather's fan-in predicate, for a check at its edge without a
// 500-rank simulation.
var (
	GatherFits    = gatherFits
	TwoLevelFanIn = twoLevelFanIn
)
