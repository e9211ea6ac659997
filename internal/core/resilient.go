package core

// The resilient suite: every collective of the multicast suite with its
// data phases run under the receiver-initiated NACK repair protocol of
// the round engine. The paper's model assumes the only way to lose an IP
// multicast is an unready receiver, which the scouts rule out; on a real
// segment fragments are also lost in flight (congestion, NIC overrun —
// the loss the simulator injects with Profile.LossRate). The resilient
// variants keep the scout gating — so nothing is lost to unready
// receivers and the happy path sends the data exactly once — and add the
// probe/NACK/confirm exchange of reference [10] so in-flight losses are
// repaired instead of deadlocking the collective. The cost is N-1
// acknowledgment frames per round and the sender waiting for them; the
// suite-wide conformance harness drives all seven collectives through
// this set under deterministic fragment loss.

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// ResilientAlgorithms returns the multicast suite with every data
// multicast protected by NACK repair (binary scout gather), complete
// like Algorithms.
func ResilientAlgorithms() mpi.Algorithms {
	rounds := roundOptions{gather: gatherScoutsBinary, repair: true}
	bcast := func(c *mpi.Comm, buf []byte, root int) error {
		return runRounds(c, []roundPlan{bcastRound(buf, root)}, rounds)
	}
	algs := baseline.Algorithms()
	algs.Bcast = bcast
	// The release is itself a multicast and can be lost in flight like
	// any other.
	algs.Barrier = func(c *mpi.Comm) error {
		return runRounds(c, []roundPlan{barrierRound()}, rounds)
	}
	// The reduce half rides point-to-point paths, which the stream
	// repairs; only the broadcast half needs the NACK protocol.
	algs.Allreduce = allreduceWith(bcast)
	algs.Allgather = func(c *mpi.Comm, send, recv []byte) error {
		return allgatherWith(c, send, recv, rounds)
	}
	algs.Alltoall = func(c *mpi.Comm, send, recv []byte) error {
		return alltoallWith(c, send, recv, rounds)
	}
	algs.Scatter = func(c *mpi.Comm, send, recv []byte, root int) error {
		return scatterWith(c, send, recv, root, rounds)
	}
	algs.Gather = func(c *mpi.Comm, send, recv []byte, root int) error {
		return gatherWith(c, send, recv, root, gatherScoutsBinary, true)
	}
	return algs
}

// bcastRound is the broadcast of buf from root as one round: root
// multicasts buf once to the whole communicator, everyone else receives
// into it.
func bcastRound(buf []byte, root int) roundPlan {
	return roundPlan{
		sender: root,
		class:  transport.ClassData,
		bytes:  len(buf),
		sends:  wholeSend(buf),
		scope:  wholeScope,
		consume: func(p []byte) error {
			if len(p) != len(buf) {
				return fmt.Errorf("core: bcast buffer %d bytes, message %d", len(buf), len(p))
			}
			copy(buf, p)
			return nil
		},
	}
}

// barrierRound is the barrier's release as one round: rank 0 multicasts
// an empty control message to the whole communicator.
func barrierRound() roundPlan {
	return roundPlan{
		sender:  0,
		class:   transport.ClassControl,
		sends:   wholeSend(nil),
		scope:   wholeScope,
		consume: func([]byte) error { return nil },
	}
}
