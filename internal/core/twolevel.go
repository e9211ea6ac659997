package core

// Two-level (segment-leader) collectives for the shared-uplink fabric.
//
// The flat suite treats every pair of ranks as equidistant, which the
// figure 14n/15n N-sweeps show is exactly wrong on a fabric where
// stations share switch ports through half-duplex segments
// (simnet.SwitchShared): the N(N-1) scout frames of a round per rank
// (the flat allgather's and alltoall's, lossless and under repair, when
// this decomposition was written) all serialize on the shared uplinks,
// and at N=32 the scout term dominated the whole sub-frame region. The decomposition here is the classic
// two-level scheme of Karonis et al. (MagPIe / MPICH-G2) and the
// multi-core collectives of Zhou et al., applied to the paper's scout
// machinery:
//
//   - ranks combine at their segment's leader over segment-local
//     traffic (a member's chunk or reduction operand crosses its own
//     segment only — intra-segment unicast is not forwarded off the
//     port, and segment-scoped multicasts address a group only segment
//     members join, so the switch has no other port to forward to);
//
//   - leaders exchange one aggregate frame (or aggregate block) per
//     segment across the uplink fabric;
//
//   - results fan back down by multicast, which the fabric already
//     delivers segment-by-segment (one egress transmission per port
//     serves every station on the segment).
//
// The set keeps the decomposition only where it wins (Träff's guideline
// "two-level ≤ flat whenever S > 1"): the bcast and barrier are the flat
// set's everywhere — gathering the scouts member → leader → root cost
// 1.15–1.25× the binary tree at N=64 — and plan gives the scatter,
// gather and alltoall the flat set's schedule outside their regimes. The
// scout economics per operation, with N ranks on S segments:
//
//	allgather:         lossless, the flat set's burst: the multicast
//	                   barrier's N-1 scouts and one release, then every
//	                   rank multicasts its own chunk — N data
//	                   multicasts, N·M bytes per segment wire, every
//	                   per-round gather collapsed into the one handshake.
//	                   There is nothing left for the segments to
//	                   localize. Under NACK repair it is the flat
//	                   repaired burst: 2(N-1) scouts, a handshake and a
//	                   confirmation, which beats a combine at each leader
//	                   followed by S sequential leader rounds at every
//	                   measured lossless point and at 1 % loss from N=32.
//	gather:            from N=16 with a segment's chunks in one frame
//	                   (plan): zero scout frames — one point-to-point
//	                   gather up an mpi.Nested tree, the (N-S) member
//	                   chunks to their leaders and S-1 aggregate blocks
//	                   across the uplinks, ungated like the flat
//	                   point-to-point gather while two gathers' messages
//	                   fit the busiest receiver's ring. Elsewhere the
//	                   flat gather.
//	allreduce:         zero scout frames — the reduction data itself
//	                   gates every hop (members combine at their leader,
//	                   leaders combine in one mpi.ReduceWalks walk over
//	                   the leader set, and the final multicast follows the
//	                   data it proves everyone contributed to). On even
//	                   segments past one frame (plan), the chunked
//	                   allreduce below, as in every lossless set.
//	scatter:           from N=32 in the same blocks (plan): the
//	                   flat binary tree's N-1 scouts, then at most S
//	                   segment-group multicasts of per-segment
//	                   super-slices in place of the flat N-1 per-rank
//	                   slice transmissions. Elsewhere the flat scatter.
//	alltoall:          the allgather's burst handshake — N-1 scouts and
//	                   one release, as the flat lossless alltoall's
//	                   burst (the flat repaired burst sends 2(N-1), a
//	                   round per rank sent 65,280 at N=256). Lossless
//	                   data path: once
//	                   released every rank multicasts, to each segment's
//	                   group, one block of its own chunks for that
//	                   segment's members, taking the segments around the
//	                   ring from the one after its own, so the first
//	                   blocks of all ranks spread over every segment port
//	                   at once; each rank keeps its chunk of the N-1
//	                   blocks its segment hears. Up to N=32, from
//	                   1,000 B (plan), the flat burst — N-1
//	                   slices per rank, each to its receiver alone —
//	                   beats the blocks and runs in their place. Under
//	                   NACK repair it is the flat repaired burst, as the
//	                   allgather.
//	chunked allreduce: on segments of equal size F, AllreduceMcastChunked
//	                   reduce-scatters in two levels — log2 F or F-1
//	                   segment-local messages and log2 S or S-1 across
//	                   the uplinks per rank, not N-1 — and gathers the reduced slices with zero
//	                   scouts, gated by the reduce-scatter data like the
//	                   allreduce above: F lane-head multicasts after a
//	                   binomial gather along each lane (plan's lane
//	                   regime), else S leader multicasts where a
//	                   segment's slices fit one frame, N beyond. On
//	                   uneven segments it reduce-scatters in one level
//	                   and gathers the same way.
//
// The lossless allgather and alltoall and the chunked gather differ only
// in their evidence — the burst's barrier or the reduce-scatter; the
// data phase that follows is one exchange for all three, in windows
// behind the multicast barrier past the receive budget (burstRecvBudget).
//
// A communicator without a usable topology — no device map, a single
// segment (nothing to localize), or one rank per segment (the
// decomposition IS the flat algorithm) — runs the flat schedules of the
// binary set, or of the resilient one, operation for operation (plan),
// so the two-level set is safe to select unconditionally. On a single
// segment, one collision domain, the flat lossless allgather and
// alltoall burst in slot order.
//
// Strict posted-receive safety follows the same arguments as the flat
// engine: every multicast is gated on evidence that its receivers have
// entered (scouts, or the reduction data itself), and each rank's window
// between proving readiness and posting its receive contains no
// simulated work. Under the resilient variant every multicast runs
// under the fragment-granular NACK repair protocol of rounds.go
// (awaitMulticast on the listening side, serveRepairs on the sending
// side), and all point-to-point traffic — the whole gather included —
// already rides the reliable stream, so the set survives combined
// multicast + p2p loss like the flat resilient suite.

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/topo"
)

// TwoLevelAlgorithms returns the topology-aware collective set
// (registered in bench as mcast-2level): over the device topology the
// allreduce runs in two levels (the chunked one on even segments past
// one frame, as in the flat lossless sets), the alltoall bursts segment blocks and
// the scatter and gather run two levels inside their measured regimes;
// every other operation, and every operation where there is no usable
// topology, is the flat binary set's (package baseline's beneath it).
func TwoLevelAlgorithms() mpi.Algorithms {
	return suite(kind{twoLevel: true}, plan)
}

// TwoLevelResilientAlgorithms is TwoLevelAlgorithms with every
// multicast — fan-outs and segment rounds — protected by the NACK
// repair protocol, over the flat resilient set, whose repaired burst is
// its allgather and alltoall.
func TwoLevelResilientAlgorithms() mpi.Algorithms {
	return suite(kind{repair: true, twoLevel: true}, plan)
}

// usableTopo returns the communicator's topology when the two-level
// decomposition can profit from it: more than one segment (otherwise
// there is no uplink to economize) and fewer segments than ranks
// (otherwise every rank is its own leader and the decomposition IS the
// flat algorithm). nil means: run the flat suite.
func usableTopo(c *mpi.Comm) *topo.Map {
	t := c.Topo()
	if t == nil || t.Segments() <= 1 || t.Segments() >= c.Size() {
		return nil
	}
	return t
}

// segScope is the scope of a segment round: every rank listens on its
// own segment's group.
func segScope(t *topo.Map) func(rank int) mpi.Scope {
	return func(rank int) mpi.Scope { return mpi.Seg(t.SegmentOf(rank)) }
}

// segSends is the send list of a segment round or burst at sender: buf
// is one n-byte chunk per rank, and to every segment's group goes its
// block of them, its members' chunks in member order, taking the
// segments around the ring from the one after `after` (ringAfter) —
// except a segment whose only member is the sender, where nobody would
// receive it. The scatter's round
// takes the segments in order (after = S-1). The burst alltoall starts
// after the sender's own segment, so that comes last: every rank
// starting at a different segment is what keeps the blocks apart, where
// in the common order all N ranks' first blocks would converge on
// segment 0's port, then all on segment 1's, one port at a time.
func segSends(t *topo.Map, buf []byte, n, sender, after int) func() []send {
	return func() []send {
		sends := make([]send, 0, t.Segments())
		for s := range ringAfter(after, t.Segments()) {
			if ms := t.Members(s); len(ms) > 1 || ms[0] != sender {
				blk := make([]byte, 0, n*len(ms))
				for _, r := range ms {
					blk = append(blk, buf[r*n:(r+1)*n]...)
				}
				sends = append(sends, send{scope: mpi.Seg(s), payload: blk})
			}
		}
		return sends
	}
}

// allreduceTwoLevel reduces in two levels — members hand their
// contributions to their segment leader (an mpi.Star), which combines
// them in member order, then leaders combine in one mpi.ReduceWalks
// region over t.Leaders() (the binomial tree of the flat reduce over a
// smaller group: one aggregate frame per segment across the uplinks) —
// then the root leader multicasts the result once. No scout frames at
// all: the reduction data itself gates every hop, and a rank posts its
// receive the instant its contribution is sent. That holds at 0 bytes
// too: the star sends its empty blocks and a lone region is walked even
// when empty, so the root leader still hears from every segment before
// its fan-out. The fan-out runs under opt's repair.
func allreduceTwoLevel(c *mpi.Comm, t *topo.Map, send, recv []byte, dt mpi.Datatype, op mpi.Op, opt roundOptions) error {
	me, n := c.Rank(), len(send)
	members := t.Members(t.SegmentOf(me))
	leader := members[0]

	cc := c.BeginColl()
	acc := append([]byte(nil), send...)
	var parts []byte // the leader's copy of its members' contributions, in member order
	if me == leader {
		parts = make([]byte, n*len(members))
	}
	part := func(r int) []byte {
		if r == me {
			return acc
		}
		i := slices.Index(members, r)
		return parts[i*n : (i+1)*n]
	}
	if err := mpi.GatherTree(cc, mpi.Star(leader, members), phaseChunk, false, part); err != nil {
		return err
	}
	if me == leader {
		// Combine in member order, so a floating-point result does not
		// depend on arrival order.
		for _, r := range members[1:] {
			if err := mpi.ReduceBytes(op, dt, acc, part(r)); err != nil {
				return err
			}
		}
		// Leader tree: one walk over the leaders, toward segment 0's.
		if err := mpi.ReduceWalks(cc, t.Leaders(), []int{0, n}, phaseBlock, false, acc, dt, op); err != nil {
			return err
		}
	}

	// The fan-out is a broadcast of the result from the root leader
	// whose readiness proof is the reduction itself.
	root := t.Leader(0)
	if me == root {
		copy(recv, acc)
	}
	return runRound(c, bcastRound(recv, root), roundOptions{gather: noGather, repair: opt.repair})
}

// gatherTwoLevel is two nested linear gathers over the bypass, an
// mpi.Nested tree: every member sends its chunk to its segment's leader
// (the root in its own), and every other leader sends its segment's
// block of chunks, in member order, to the root — only S-1 blocks cross
// the uplinks. Nothing is gated: as in the flat set's point-to-point
// gather, the receive ring of the busiest receiver absorbs two gathers'
// messages unposted (plan), and under repair the stream carries the
// whole gather.
func gatherTwoLevel(c *mpi.Comm, t *topo.Map, send, recv []byte, root int) error {
	n, me := len(send), c.Rank()
	members := t.Members(t.SegmentOf(me))
	// The root collects into recv, in rank order; every other rank into a
	// block of its segment's chunks, in member order, which a leader fills
	// and sends on.
	buf, at := recv, func(r int) int { return r }
	if me != root {
		buf, at = make([]byte, n*len(members)), func(r int) int { return slices.Index(members, r) }
	}
	slot := func(r int) []byte { return buf[at(r)*n : (at(r)+1)*n] }
	copy(slot(me), send)
	return mpi.GatherTree(c.BeginColl(), mpi.Nested(root, t), phaseChunk, false, slot)
}

// alltoallTwoLevel runs the personalized exchange hierarchically, where
// the flat sliced exchange makes N(N-1) per-slice transmissions: a burst
// over segSends, in which after the barrier's N-1 scouts and one release
// every rank multicasts one block per segment, and keeps its own chunk
// of each block its segment hears. It runs lossless only (plan): under
// repair the set runs the flat repaired burst.
func alltoallTwoLevel(c *mpi.Comm, t *topo.Map, send, recv []byte, opt roundOptions) error {
	n := len(send) / c.Size()
	me := c.Rank()
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	myMembers := t.Members(t.SegmentOf(me))
	myIdx := slices.Index(myMembers, me)
	blk := n * len(myMembers)
	return burst(c, opt, segSends(t, send, n, me, t.SegmentOf(me))(), segScope(t), func(r int, p []byte) error {
		if len(p) != blk {
			return fmt.Errorf("core: alltoall block from %d is %d bytes, want %d", r, len(p), blk)
		}
		copy(recv[r*n:(r+1)*n], p[myIdx*n:(myIdx+1)*n])
		return nil
	})
}
