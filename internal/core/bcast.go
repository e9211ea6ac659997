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
// Algorithms(mode) — with the frame-count model documented there: the
// allgather sends N·ceil(M/T) data frames where the unicast ring sends
// N·(N-1)·ceil(M/T), and the allreduce's broadcast half sends ceil(M/T)
// frames instead of (N-1)·ceil(M/T). The multi-round collectives run on the shared round
// engine of rounds.go, sequentially or pipelined (BinaryPipelined), and
// resilient.go wraps every data multicast in NACK repair for lossy
// segments.
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
	// BinaryPipelined gathers scouts up the binomial tree and, in the
	// multi-round collectives (Alltoall, and Allgather where it runs
	// rounds), overlaps round r+1's scout gather with round r's data
	// multicast so the scout latency is hidden behind the data
	// transmission (rounds.go).
	BinaryPipelined
)

func (m Mode) String() string {
	switch m {
	case Binary:
		return "binary"
	case Linear:
		return "linear"
	case BinaryPipelined:
		return "binary-pipelined"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Algorithms returns the multicast collective suite for the given scout
// mode: Bcast and Barrier as the paper describes them, plus the
// Allgather, Allreduce, Scatter, Gather and Alltoall compositions of
// suite.go. The set is complete: the collectives core does not
// implement (Reduce, Scan, ReduceScatter) are package baseline's.
func Algorithms(mode Mode) mpi.Algorithms {
	rounds := roundOptions{gather: gatherScoutsBinary}
	switch mode {
	case Linear:
		rounds.gather = gatherScoutsLinear
	case BinaryPipelined:
		rounds.pipeline = true
	}
	// A single round has no next round to overlap with.
	single := roundOptions{gather: rounds.gather}
	bcast := func(c *mpi.Comm, buf []byte, root int) error {
		return bcastWith(c, buf, root, rounds.gather)
	}
	algs := baseline.Algorithms()
	algs.Bcast = bcast
	algs.Barrier = Barrier
	algs.Allreduce = allreduceWith(bcast)
	algs.Allgather = func(c *mpi.Comm, send, recv []byte) error {
		return allgatherWith(c, send, recv, rounds)
	}
	algs.Alltoall = func(c *mpi.Comm, send, recv []byte) error {
		return alltoallWith(c, send, recv, rounds)
	}
	algs.Scatter = func(c *mpi.Comm, send, recv []byte, root int) error {
		return scatterWith(c, send, recv, root, single)
	}
	algs.Gather = func(c *mpi.Comm, send, recv []byte, root int) error {
		return gatherWith(c, send, recv, root, rounds.gather, false)
	}
	return algs
}

// scout phases within a collective operation.
const (
	phaseScout       = 0 // readiness scouts
	phaseAck         = 1 // acknowledgments (ACK/NACK protocols)
	phaseForward     = 2 // root-to-sequencer forwarding
	phaseNack        = 3 // repair requests (NACK protocol)
	phaseChunk       = 4 // per-rank data chunks (gather/reduce suite)
	phaseLeaderScout = 5 // segment leaders' aggregate scouts (two-level)
	phaseRelease     = 6 // root-to-leaders release (two-level gather)
	phaseBlock       = 7 // per-segment aggregate blocks (two-level)
	phaseSlice       = 8 // base phase of the per-slice binomial reductions
	//               (phaseSlice+s carries slice s's walk, s < Size)
)

// gatherScoutsBinary runs the binary-tree scout gather of Fig. 3 toward
// root. It returns once this rank's subtree is known ready; for the root
// that means the whole communicator is ready.
//
// One rank may be marked hot (-1: none): a rank whose scout is known to
// arrive late (the previous round's data sender, in the pipelined round
// schedule, whose scout rides behind its data multicast). The tree seats
// the hot rank at relative position 1 — a direct leaf of the root — by
// transposing it with the rank that would normally sit there, so the
// late scout is awaited only by the root and releases no intermediate
// forwarding hop. An intermediate
// forward released by a late scout is a loss window under strict
// posted-receive semantics: the forwarding rank's unposted send can
// coincide with the data multicast the late scout was trailing.
//
// The transposition is a pure function of (root, hot), so every rank
// derives the same tree without communication; hot=-1 (or hot==root)
// yields the paper's Fig. 3 tree exactly: a fold-in, then the
// mpi.Binomial tree over the power-of-two subcube, seats permuted.
func gatherScoutsBinary(cc mpi.CollCtx, root, hot int) error {
	c := cc.Comm()
	size := c.Size()
	h := -1
	if hot >= 0 && hot != root {
		h = (hot - root + size) % size
	}
	// perm transposes relative positions h and 1 (an involution, so it
	// is its own inverse); with no hot rank it is the identity.
	perm := func(rel int) int {
		if h > 1 {
			if rel == h {
				return 1
			}
			if rel == 1 {
				return h
			}
		}
		return rel
	}
	rel := perm((c.Rank() - root + size) % size)
	rankOf := func(rel int) int { return (perm(rel) + root) % size }
	k := 1 << (bits.Len(uint(size)) - 1) // the largest power of two <= size

	if rel >= k {
		// Fold-in: ranks beyond the power-of-two boundary scout first
		// (4, 5, 6 → 0, 1, 2 in the paper's 7-process example).
		return cc.Send(rankOf(rel-k), phaseScout, nil, transport.ClassScout, false)
	}
	if rel+k < size {
		if _, err := cc.Recv(rankOf(rel+k), phaseScout); err != nil {
			return err
		}
	}
	// Low-bit-first binomial gather over the power-of-two subcube: odd
	// relative ranks send first (1→0, 3→2), then 2→0, and so on. The
	// scouts carry no payload — the walk itself is the readiness proof.
	parent, children := mpi.Binomial(rel, k)
	for child := range children.All {
		if _, err := cc.Recv(rankOf(child), phaseScout); err != nil {
			return err
		}
	}
	if parent < 0 {
		return nil
	}
	return cc.Send(rankOf(parent), phaseScout, nil, transport.ClassScout, false)
}

// gatherScoutsLinear has every non-root rank scout directly to the root
// (Fig. 4); the root receives the N-1 scouts one at a time. There are no
// forwarding hops, so a hot rank needs no special seat.
func gatherScoutsLinear(cc mpi.CollCtx, root, _ int) error {
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
func noGather(mpi.CollCtx, int, int) error { return nil }

// bcastWith runs a scout-synchronized multicast broadcast: Fig. 3 with
// the binary gather, Fig. 4 with the linear one.
func bcastWith(c *mpi.Comm, buf []byte, root int, gather func(cc mpi.CollCtx, root, hot int) error) error {
	size := c.Size()
	if size == 1 {
		return nil
	}
	cc := c.BeginColl()
	cc.SpanBegin("scout-gather")
	err := gather(cc, root, -1)
	cc.SpanEnd("scout-gather")
	if err != nil {
		return err
	}
	if c.Rank() == root {
		// Every receiver has posted: one multicast cannot be lost.
		cc.SpanBegin("data-mcast")
		err := cc.Multicast(mpi.Whole, buf, transport.ClassData)
		cc.SpanEnd("data-mcast")
		return err
	}
	cc.SpanBegin("data-mcast")
	m, err := cc.RecvMulticast(mpi.Whole)
	cc.SpanEndGated("data-mcast", root)
	if err != nil {
		return err
	}
	if len(m.Payload) != len(buf) {
		return fmt.Errorf("core: bcast buffer %d bytes, message %d", len(buf), len(m.Payload))
	}
	copy(buf, m.Payload)
	return nil
}

// BcastUnsafe multicasts without any synchronization. It exists to
// demonstrate the failure mode the scout protocols prevent: under
// receiver-directed multicast semantics a rank that has not posted its
// receive when the datagram arrives loses it, and the broadcast hangs or
// corrupts. Never use it outside experiments. It is the broadcast round
// without its scout gather.
func BcastUnsafe(c *mpi.Comm, buf []byte, root int) error {
	return runRounds(c, []roundPlan{bcastRound(buf, root)}, roundOptions{gather: noGather})
}

// Barrier implements the paper's multicast barrier: point-to-point scout
// messages reduce to rank 0 in a binary tree, then one empty multicast
// releases every process. N-1 point-to-point messages plus one multicast
// replace the 2(N-K) + K·log2(K) messages of the MPICH barrier.
func Barrier(c *mpi.Comm) error {
	if c.Size() == 1 {
		return nil
	}
	return barrierOn(c.BeginColl(), gatherScoutsBinary)
}

// barrierOn runs the barrier on cc with gather's scouts toward rank 0:
// the multicast barrier itself, and the handshake of every burst.
func barrierOn(cc mpi.CollCtx, gather func(cc mpi.CollCtx, root, hot int) error) error {
	cc.SpanBegin("scout-gather")
	err := gather(cc, 0, -1)
	cc.SpanEnd("scout-gather")
	if err != nil {
		return err
	}
	if cc.Comm().Rank() == 0 {
		cc.SpanBegin("release")
		err := cc.Multicast(mpi.Whole, nil, transport.ClassControl)
		cc.SpanEnd("release")
		return err
	}
	cc.SpanBegin("release")
	_, err = cc.RecvMulticast(mpi.Whole)
	cc.SpanEndGated("release", 0)
	return err
}

// allreduceWith is the future-work composition the paper points at: a
// binomial reduction to rank 0 (point-to-point, as in MPICH, but over the
// UDP bypass: one mpi.ReduceWalks region over rank order) followed by
// bcast of the result from rank 0 — a scout-synchronized multicast, so
// the broadcast half sends ceil(M/T) frames instead of ceil(M/T)·(N-1).
func allreduceWith(bcast func(c *mpi.Comm, buf []byte, root int) error) func(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	return func(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
		if len(recv) != len(send) {
			return fmt.Errorf("core: allreduce recv buffer %d bytes, want %d", len(recv), len(send))
		}
		ranks := make([]int, c.Size())
		for r := range ranks {
			ranks[r] = r
		}
		acc := append([]byte(nil), send...)
		if err := mpi.ReduceWalks(c.BeginColl(), ranks, []int{0, len(acc)}, phaseChunk, false, acc, dt, op); err != nil {
			return err
		}
		if c.Rank() == 0 {
			copy(recv, acc)
		}
		return bcast(c, recv, 0)
	}
}
