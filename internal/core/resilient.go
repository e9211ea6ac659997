package core

// The resilient suite: the flat multicast suite built by the same
// constructor as Algorithms (suite), with every round — the broadcast
// and the barrier's release included — run under the receiver-initiated
// NACK repair protocol of the round engine. The paper's model assumes
// the only way to lose an IP multicast is an unready receiver, which the
// scouts rule out; on a real segment fragments are also lost in flight
// (congestion, NIC overrun — the loss the simulator injects with
// Profile.LossRate). The resilient variants keep the scout gating — so
// nothing is lost to unready receivers and the happy path sends the data
// exactly once — and add the probe/NACK/confirm exchange of reference
// [10] so in-flight losses are repaired instead of deadlocking the
// collective. Point-to-point traffic (scouts, the allreduce's reduce
// half, the gated gather's chunks, the whole of package baseline's
// scatter and gather, which the set runs outside their multicast
// regimes, and the whole of the two-level set's gather) rides the
// stream, which repairs it itself.
// The cost is N-1 acknowledgment frames per operation and its last
// sender waiting for them: a one-round operation's receivers acknowledge
// its multicast, and the allgather and alltoall, one repaired burst,
// end in a confirmation barrier whose release the receivers
// acknowledge, where a round per sender cost N(N-1). The suite-wide
// conformance harness drives all seven collectives through this set
// under deterministic fragment loss.

import "repro/internal/mpi"

// ResilientAlgorithms returns the multicast suite with every data
// multicast protected by NACK repair (binary scout gather), complete
// like Algorithms.
func ResilientAlgorithms() mpi.Algorithms {
	return suite(kind{repair: true}, plan)
}
