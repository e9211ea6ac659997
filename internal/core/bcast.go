// Package core implements the paper's contribution: MPI collective
// operations over IP multicast.
//
// IP multicast is receiver-directed and unreliable — a datagram multicast
// before a receiver has posted its receive is lost. The asynchronous
// nature of cluster computing means the root cannot know the receivers'
// state without synchronization. The paper introduces two scout
// synchronization schemes that guarantee every receiver is ready before
// the single multicast transmission:
//
//   - Linear (Fig. 4): every non-root rank sends a scout message
//     point-to-point to the root; the root collects all N-1 scouts and
//     then multicasts the payload once.
//
//   - Binary (Fig. 3): scouts are combined up a binomial tree — ranks
//     beyond the largest power of two K fold in first, then a
//     low-bit-first binomial gather runs over ranks 0..K-1 — so the root
//     learns "everyone is ready" in log2(K)+1 steps. With 7 processes,
//     4, 5 and 6 send to 0, 1 and 2; then 1→0 and 3→2; then 2→0; then
//     the root multicasts.
//
// Either way a broadcast of M bytes with frame payload T costs N-1 scout
// frames plus ceil(M/T) data frames — versus ceil(M/T)·(N-1) data frames
// for the MPICH binomial tree, which is why multicast wins once the
// message exceeds roughly one Ethernet frame.
//
// The package also implements the comparison protocols: the PVM-style
// acknowledgment broadcast (sender repeats until ACKed, which the paper
// reports does not improve performance), an Orca-style sequencer
// broadcast, the multicast barrier, and an intentionally unsynchronized
// broadcast used to demonstrate the loss failure mode.
//
// Beyond the paper's two operations, suite.go composes the scout-gated
// multicast primitive into a full collective suite — allgather,
// allreduce, scatter, gather and alltoall, selected as a set by
// Algorithms(mode); the scatter and gather are package baseline's
// point-to-point ones outside the regimes where multicast wins — with
// the frame-count model documented there: the
// allgather sends N·ceil(M/T) data frames where the unicast ring sends
// N·(N-1)·ceil(M/T), and the allreduce's broadcast half sends ceil(M/T)
// frames instead of (N-1)·ceil(M/T). Every scout-gated multicast runs on
// the one round engine of rounds.go: the paper's broadcast and barrier
// are one round each (bcastRound, barrierRound), and the handshake of
// every lossless burst is the barrier's round. One constructor, suite,
// builds every set — the lossless ones of Algorithms, the one of
// resilient.go, whose rounds and bursts run under NACK repair for lossy
// segments, and the two-level pair — and one pure function, plan, picks
// the schedule each of their operations runs.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Mode selects the scout synchronization scheme.
type Mode int

const (
	// Binary gathers scouts up a binomial tree (Fig. 3).
	Binary Mode = iota
	// Linear sends all scouts directly to the root (Fig. 4).
	Linear
)

func (m Mode) String() string {
	switch m {
	case Binary:
		return "binary"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Algorithms returns the multicast collective suite for the given scout
// mode: Bcast and Barrier as the paper describes them, plus the
// Allgather, Allreduce, Scatter, Gather and Alltoall compositions of
// suite.go. The set is complete: the collectives core does not
// implement (Reduce, Scan, ReduceScatter) are package baseline's, and so
// are the Scatter and Gather outside their regimes (plan).
func Algorithms(mode Mode) mpi.Algorithms {
	return suite(kind{mode: mode}, plan)
}

// suite builds the multicast set of kind k, every one of them: the
// lossless sets of Algorithms, ResilientAlgorithms and the two-level
// pair. Its collectives run on the round engine with k's scout gather
// and reliability class, and the scatter, gather, alltoall and
// allreduce run the schedule pick returns, which is plan's outside the
// tests. One rule bends k's gather: the barrier gathers its scouts up
// the binary tree whatever the set's (the paper's barrier).
func suite(k kind, pick planner) mpi.Algorithms {
	rounds := roundOptions{gather: gatherScoutsBinary, repair: k.repair}
	barrier := rounds
	if k.mode == Linear {
		rounds.gather = gatherScoutsLinear
	}
	planned := func(c *mpi.Comm, op operation, chunk, root int) schedule {
		return pick(k, op, planIn{t: usableTopo(c), size: c.Size(), chunk: chunk, root: root})
	}
	algs := baseline.Algorithms()
	algs.Bcast = func(c *mpi.Comm, buf []byte, root int) error {
		return runRound(c, bcastRound(buf, root), rounds)
	}
	algs.Barrier = func(c *mpi.Comm) error {
		return runRound(c, barrierRound(), barrier)
	}
	algs.Allgather = func(c *mpi.Comm, send, recv []byte) error {
		return allgatherWith(c, send, recv, rounds)
	}
	algs.Allreduce = func(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
		if planned(c, opAllreduce, len(send), 0) == leaderReduce {
			return allreduceTwoLevel(c, usableTopo(c), send, recv, dt, op, rounds)
		}
		return allreduceWith(c, send, recv, dt, op, rounds)
	}
	algs.Alltoall = func(c *mpi.Comm, send, recv []byte) error {
		if planned(c, opAlltoall, len(send)/c.Size(), 0) == segmentBurst {
			return alltoallTwoLevel(c, usableTopo(c), send, recv, rounds)
		}
		return alltoallWith(c, send, recv, rounds)
	}
	algs.Scatter = func(c *mpi.Comm, send, recv []byte, root int) error {
		switch planned(c, opScatter, len(recv), root) {
		case slicedRound:
			return scatterWith(c, send, recv, root, rounds, nil)
		case segmentRound:
			return scatterWith(c, send, recv, root, rounds, usableTopo(c))
		}
		return baseline.Scatter(c, send, recv, root)
	}
	algs.Gather = func(c *mpi.Comm, send, recv []byte, root int) error {
		switch planned(c, opGather, len(send), root) {
		case releaseGated:
			return gatherWith(c, send, recv, root, rounds)
		case nestedP2P:
			return gatherTwoLevel(c, usableTopo(c), send, recv, root)
		}
		return baseline.Gather(c, send, recv, root)
	}
	return algs
}

// scout phases within a collective operation.
const (
	phaseScout   = 0 // readiness scouts
	phaseAck     = 1 // acknowledgments (ACK/NACK protocols)
	phaseForward = 2 // root-to-sequencer forwarding
	phaseNack    = 3 // repair requests (NACK protocol)
	phaseChunk   = 4 // per-rank data chunks (gather/reduce suite)
	phaseBlock   = 7 // the two-level allreduce's walk over the leaders
	phaseSlice   = 8 // base phase of the per-slice binomial reductions
	//               (phaseSlice+s carries slice s's walk, s < Size)
)

// gatherScoutsBinary runs the binary-tree scout gather of Fig. 3 toward
// root. It returns once this rank's subtree is known ready; for the root
// that means the whole communicator is ready.
//
// Every rank derives the same tree from root alone: a fold-in, then
// the mpi.Binomial tree over the power-of-two subcube, both over ranks
// relative to root.
func gatherScoutsBinary(cc mpi.CollCtx, root int) error {
	c := cc.Comm()
	parent, children := scoutTree(c.Rank(), root, c.Size())
	for _, child := range children {
		if _, err := cc.Recv(child, phaseScout); err != nil {
			return err
		}
	}
	if parent < 0 {
		return nil
	}
	return cc.Send(parent, phaseScout, nil, transport.ClassScout, false)
}

// scoutTree returns rank's place in the binary scout gather toward root:
// the rank it scouts to (-1 at the root) and the ranks that scout to it,
// in the order it takes their scouts.
func scoutTree(rank, root, size int) (parent int, children []int) {
	rel := (rank - root + size) % size
	rankOf := func(rel int) int { return (rel + root) % size }
	k := 1 << (bits.Len(uint(size)) - 1) // the largest power of two <= size

	if rel >= k {
		// Fold-in: ranks beyond the power-of-two boundary scout first
		// (4, 5, 6 → 0, 1, 2 in the paper's 7-process example).
		return rankOf(rel - k), nil
	}
	children = make([]int, 0, bits.Len(uint(k)))
	if rel+k < size {
		children = append(children, rankOf(rel+k))
	}
	// Low-bit-first binomial gather over the power-of-two subcube: odd
	// relative ranks send first (1→0, 3→2), then 2→0, and so on. The
	// scouts carry no payload — the walk itself is the readiness proof.
	p, subtree := mpi.Binomial(rel, k)
	for child := range subtree.All {
		children = append(children, rankOf(child))
	}
	if p < 0 {
		return -1, children
	}
	return rankOf(p), children
}

// gatherScoutsLinear has every non-root rank scout directly to the root
// (Fig. 4); the root receives the N-1 scouts one at a time.
func gatherScoutsLinear(cc mpi.CollCtx, root int) error {
	c := cc.Comm()
	if c.Rank() != root {
		return cc.Send(root, phaseScout, nil, transport.ClassScout, false)
	}
	for i := 0; i < c.Size()-1; i++ {
		if _, err := cc.Recv(mpi.AnySource, phaseScout); err != nil {
			return err
		}
	}
	return nil
}

// noGather is the gather of a round that sends no scouts. Its two users
// differ in why: the two-level allreduce's fan-out needs no proof — it
// follows a reduction that cannot complete until every rank has sent its
// contribution, and a rank posts its receive right after that send —
// while the unsafe broadcast (BcastUnsafe) omits the proof on purpose.
func noGather(mpi.CollCtx, int) error { return nil }

// bcastRound is the paper's broadcast (Fig. 3 with the binary gather,
// Fig. 4 with the linear one) as one round: root multicasts buf once to
// the whole communicator, everyone else receives into it.
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

// BcastUnsafe multicasts without any synchronization. It exists to
// demonstrate the failure mode the scout protocols prevent: under
// receiver-directed multicast semantics a rank that has not posted its
// receive when the datagram arrives loses it, and the broadcast hangs or
// corrupts. Never use it outside experiments. It is the broadcast round
// without its scout gather.
func BcastUnsafe(c *mpi.Comm, buf []byte, root int) error {
	return runRound(c, bcastRound(buf, root), roundOptions{gather: noGather})
}

// Barrier implements the paper's multicast barrier: point-to-point scout
// messages reduce to rank 0 in a binary tree, then one empty multicast
// releases every process. N-1 point-to-point messages plus one multicast
// replace the 2(N-K) + K·log2(K) messages of the MPICH barrier. It is
// barrierRound on the round engine, as is every set's barrier and the
// handshake of every burst.
func Barrier(c *mpi.Comm) error {
	return runRound(c, barrierRound(), roundOptions{gather: gatherScoutsBinary})
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

// allreduceWith is the future-work composition the paper points at: a
// binomial reduction to rank 0 (point-to-point, as in MPICH, but over the
// UDP bypass: one mpi.ReduceWalks region over rank order) followed by
// bcast of the result from rank 0 — a scout-synchronized multicast, so
// the broadcast half sends ceil(M/T) frames instead of ceil(M/T)·(N-1).
func allreduceWith(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op, opt roundOptions) error {
	acc := append([]byte(nil), send...)
	if err := mpi.ReduceWalks(c.BeginColl(), rankOrder(c.Size()), []int{0, len(acc)}, phaseChunk, false, acc, dt, op); err != nil {
		return err
	}
	if c.Rank() == 0 {
		copy(recv, acc)
	}
	return runRound(c, bcastRound(recv, 0), opt)
}
