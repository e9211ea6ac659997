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
// 1.15–1.25× the binary tree at N=64 — and the scatter and gather are
// the flat set's outside twoLevelWins. The scout economics per
// operation, with N ranks on S segments:
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
//	                   (twoLevelWins): zero scout frames — two nested
//	                   point-to-point gathers, the (N-S) member chunks
//	                   to their leaders and S-1 aggregate blocks across
//	                   the uplinks, ungated like the flat point-to-point
//	                   gather while two gathers' messages fit the busiest
//	                   receiver's ring (gatherFits). Elsewhere the flat
//	                   gather.
//	allreduce:         zero scout frames — the reduction data itself
//	                   gates every hop (members combine at their leader,
//	                   leaders combine in one mpi.ReduceWalks walk over
//	                   the leader set, and the final multicast follows the
//	                   data it proves everyone contributed to).
//	scatter:           from N=32 in the same blocks (twoLevelWins): the
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
//	                   1,000 B (flatAlltoallWins), the flat burst — N-1
//	                   slices per rank, each to its receiver alone —
//	                   beats the blocks and runs in their place. Under
//	                   NACK repair it is the flat repaired burst, as the
//	                   allgather.
//	chunked allreduce: on segments of equal size F, AllreduceMcastChunked
//	                   reduce-scatters in two levels — F-1 segment-local
//	                   messages and S-1 across the uplinks per rank, not
//	                   N-1 — and gathers the reduced slices with zero
//	                   scouts, gated by the reduce-scatter data like the
//	                   allreduce above: S leader multicasts where a
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
// decomposition IS the flat algorithm) — runs the set's flat set
// (twoLevel.flat: the binary set, or the resilient one) operation for
// operation, so the two-level set is safe to select unconditionally. On
// a single segment, one collision domain, the flat lossless allgather
// and alltoall burst in slot order.
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
	"repro/internal/transport"
)

// TwoLevelAlgorithms returns the topology-aware collective set
// (registered in bench as mcast-2level): over the device topology the
// allreduce runs in two levels, the alltoall bursts segment blocks and
// the scatter and gather run two levels inside their measured regimes;
// every other operation, and every operation where there is no usable
// topology, is the flat binary set's (package baseline's beneath it).
func TwoLevelAlgorithms() mpi.Algorithms {
	return twoLevelSet(&twoLevel{flat: Algorithms(Binary)})
}

// TwoLevelResilientAlgorithms is TwoLevelAlgorithms with every
// multicast — fan-outs and segment rounds — protected by the NACK
// repair protocol, over the flat resilient set, whose repaired burst is
// its allgather and alltoall.
func TwoLevelResilientAlgorithms() mpi.Algorithms {
	return twoLevelSet(&twoLevel{flat: ResilientAlgorithms(), rep: true})
}

// twoLevel is one two-level set: the flat set each operation runs on a
// communicator without a usable topology, and whether every multicast
// runs under NACK repair (false: scout-only).
type twoLevel struct {
	flat mpi.Algorithms
	rep  bool
}

func twoLevelSet(tl *twoLevel) mpi.Algorithms {
	algs := tl.flat
	algs.Allreduce = tl.allreduce
	algs.Gather = tl.gather
	algs.Scatter = tl.scatter
	algs.Alltoall = tl.alltoall
	return algs
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

// opLeader returns the leader of seg for an operation rooted at root:
// the deterministic segment leader, except that root leads its own
// segment so its data never pays an extra local hop. A pure function of
// (seg, root), so every rank derives the same leaders.
func opLeader(t *topo.Map, seg, root int) int {
	if t.SegmentOf(root) == seg {
		return root
	}
	return t.Leader(seg)
}

// segScope is the scope of a segment round: every rank listens on its
// own segment's group.
func segScope(t *topo.Map) func(rank int) mpi.Scope {
	return func(rank int) mpi.Scope { return mpi.Seg(t.SegmentOf(rank)) }
}

// segSends is the send list of a segment round: buf is one n-byte chunk
// per rank, and each segment's block of them (segBlock) goes to that
// segment's group, in segment order — except a segment whose only
// member is the sender, where nobody would receive it.
func segSends(t *topo.Map, buf []byte, n, sender int) func() []send {
	return func() []send {
		sends := make([]send, 0, t.Segments())
		for s := range t.Segments() {
			if ms := t.Members(s); len(ms) > 1 || ms[0] != sender {
				sends = append(sends, send{scope: mpi.Seg(s), payload: segBlock(ms, buf, n)})
			}
		}
		return sends
	}
}

// segBlock is the n-byte chunks of buf that belong to members, in member
// order.
func segBlock(members []int, buf []byte, n int) []byte {
	blk := make([]byte, 0, n*len(members))
	for _, r := range members {
		blk = append(blk, buf[r*n:(r+1)*n]...)
	}
	return blk
}

// ringSegSends is the burst alltoall's send list at rank me: to every
// segment's group, one block of me's chunks of buf (n bytes each) for
// that segment's members, in member order. The segments are taken
// around the ring from the one after me's (ringAfter), so me's own
// segment comes last — and is left out where me is its only member.
// Every rank starting at a different segment is what keeps the blocks
// apart: in the common order 0, 1, … all N ranks' first blocks would
// converge on segment 0's port, then all on segment 1's, one port at a
// time.
func ringSegSends(t *topo.Map, me int, buf []byte, n int) []send {
	sends := make([]send, 0, t.Segments())
	for d := range ringAfter(t.SegmentOf(me), t.Segments()) {
		if ms := t.Members(d); len(ms) > 1 || ms[0] != me {
			sends = append(sends, send{scope: mpi.Seg(d), payload: segBlock(ms, buf, n)})
		}
	}
	return sends
}

// The regime of the flat burst alltoall inside the two-level set: at N
// up to flatAlltoallMaxN with chunks of at least flatAlltoallMinBytes,
// the flat set's burst (one slice per destination rank, in ring order)
// beats the two-level burst (one block per segment) and runs in its
// place. The sweep it was read from — shared-uplink switch, fanout 4,
// seed 1, one cold alltoall, flat mcast-binary over the two-level burst:
//
//	N \ M (B)   100   500  1,000  1,500  2,000  4,000  8,000  16,000  65,536
//	  8        1.26  0.97   0.92   0.90   0.89   0.85   0.86    0.85    0.86
//	 16        1.33  1.03   0.98   0.98   0.96   0.94   0.94    0.93    0.95
//	 32        1.41  1.07   1.00   1.02   1.00   0.97   0.97    0.97    0.93
//	 64           —  1.09   1.01   1.04   1.02   0.99   0.99    1.00       —
//	128           —  1.09   1.02   1.04   1.02   0.99   1.00    1.06       —
//	256        1.55     —      —      —   1.02   1.00   1.00       —       —
//
// (and 1.04 at N=64, 32,000 B; 1.01 at N=128, 12,000 B). Small chunks
// favour the two-level blocks (S multicasts per rank, not N-1); from a
// frame up, and up to N=32, N-1 slices that reach only their own
// receiver beat blocks that every member of a segment hears. From N=64
// the flat burst gains at most 1.4 % and loses up to 6 % at larger
// chunks, so the two-level burst keeps it. Every measured cell keeps
// the set within 1.04× of the faster schedule, and N=64 and N=256 at
// 2,000 B stay on the two-level burst.
const (
	flatAlltoallMaxN     = 32
	flatAlltoallMinBytes = 1_000
)

// flatAlltoallWins reports whether an alltoall of n-byte chunks over
// size ranks is in the flat burst's regime.
func flatAlltoallWins(size, n int) bool {
	return size <= flatAlltoallMaxN && n >= flatAlltoallMinBytes
}

// The regime of the two-level scatter and gather: from
// twoLevelScatterMinN ranks for the scatter and twoLevelGatherMinN for
// the gather, while every segment's block of chunks (the scatter's
// super-slice, a leader's aggregate) fits twoLevelMaxBlock, one
// simulated Ethernet frame's payload; elsewhere the flat set's schedule
// runs. Read from this sweep (shared-uplink switch, fanout 4, seed 1,
// one cold operation, two-level over the flat set's schedule —
// slicedScatterWins and gatherFits):
//
//	scatter  N \ M (B)  100   250   368   500   750  1,000  2,000  5,000
//	           8       1.34  1.54  1.75  1.67  1.61   1.53   1.41   1.34
//	          16       0.94  1.13  1.33  1.39  1.36   1.30   1.19   1.16
//	          32       0.67  0.85  1.05  1.19  1.18   1.15   1.06   1.06
//	          64       0.54  0.72  0.91  1.06  1.10   1.08   1.01   1.03
//	         128       0.46  0.64  0.83  0.99  1.05   1.04   0.99   1.01
//	         256       0.42  0.59  0.79  0.89  0.95   0.97   0.98   1.00
//
//	gather   N \ M (B)  100   250   356   368   500   750  1,000  2,000  5,000
//	           8       1.03  1.25  1.40  1.45  1.39  1.39   1.35   1.29   1.23
//	          12       0.80  1.00  1.11  1.26  1.19  1.26   1.18   1.17   1.17
//	          16       0.67  0.85  0.98  1.17  1.08  1.20   1.10   1.12   1.15
//	          24       0.52  0.71  0.84  1.08  0.98  1.13   1.01   1.07   1.11
//	          32       0.45  0.64  0.78  1.03  0.93  1.10   0.97   1.04   1.06
//	          64       0.40  0.57  0.70  0.99  0.87  1.07   0.92   1.01   1.11
//	         128       0.38  0.55  0.69  0.76  0.80  0.88   0.89   0.96   1.11
//	         256       0.35  0.52  0.65  0.71  0.87  1.07   0.96   0.89   1.08
//
// and the scatter at the block's edge, 356 B, 0.99 at N=32. Seed 7 reads
// the same. Both flat schedules are point to point here (below a frame,
// up to N=128); the scatter's segment blocks beat it from N=32 (at N=24,
// 0.80 at 100 B but 1.05 at 300 B), the gather's member → leader → root
// sends from N=16 (at N=12, 1.05–1.11 from 300 B; at N=14 and 15,
// 0.56–0.96). The regime keeps no cell above 0.99, and gives up the
// scatter at N ≤ 24 (down to 0.77), the gather at N ≤ 15 (down to 0.56)
// and the wins past a frame, which are not monotone in M (the gather
// 0.71–0.98 at 368, 500, 1,000 and 2,000 B, 1.07 at 750 B, N=256).
const (
	twoLevelScatterMinN = 32
	twoLevelGatherMinN  = 16
	twoLevelMaxBlock    = 1_424
)

// twoLevelWins reports whether a scatter or gather of n-byte chunks over
// size ranks on t is in the two-level schedule's regime, which starts at
// minN ranks: twoLevelScatterMinN or twoLevelGatherMinN.
func twoLevelWins(t *topo.Map, size, n, minN int) bool {
	if size < minN {
		return false
	}
	for s := range t.Segments() {
		if n*len(t.Members(s)) > twoLevelMaxBlock {
			return false
		}
	}
	return true
}

// The regime of the flat sets' sliced scatter (scatterWith with no
// topology): on shared uplinks (a usable topology) from slicedScatterMinN
// ranks with chunks past one simulated frame's payload; everywhere else
// package baseline's linear scatter runs, N-1 point-to-point sends. Read
// from this sweep (shared-uplink switch, fanout 4, seed 1, one cold
// scatter, mcast-binary's sliced round over mpich):
//
//	N \ M (B)  100   500  1,000  1,424  1,500  2,000  5,000  10,000
//	  8       1.70  1.45   1.30   1.23   1.22   1.18   1.07    1.01
//	 16       1.43  1.30   1.19   1.14   1.11   1.09   1.03    0.99
//	 32       1.22  1.18   1.10   1.08   1.03   1.02   0.99    0.98
//	 64       1.12  1.10   1.07   1.05   0.99   0.99   0.98    0.97
//	128       1.07  1.05   1.04   1.03   0.97   0.97   0.97    0.96
//	256       1.03  0.97   0.98   1.00   0.96   0.97   0.95    0.95
//
// Seed 7 reads the same. A slice group's multicast is one frame per
// receiver like a unicast, but it waits behind a scout gather; from two
// frames a slice, the connectionless send (no TCP penalty, no kernel
// acks) pays for the gather once N-1 slices are many. The regime keeps
// no cell above 0.99 and gives up N=256 from 500 B to a frame (0.97–
// 1.00) and the large chunks at N ≤ 32 (0.98–0.99). Off shared uplinks
// the sliced round loses in every cell TestFlatGuideline covers on the
// switch (1.04–1.65×), and on the hub in all but two, which are given up
// (0.90–2.20×; its comment lists them). The linear scout gather's sliced
// round loses in every cell of this sweep too (1.01–1.80×), so the
// linear set never runs it (Algorithms).
const (
	slicedScatterMinN     = 64
	slicedScatterMinBytes = 1_425
)

// slicedScatterWins reports whether a scatter of n-byte chunks over size
// ranks on t, the usable topology or nil, is in the sliced scatter's
// regime.
func slicedScatterWins(t *topo.Map, size, n int) bool {
	return t != nil && size >= slicedScatterMinN && n >= slicedScatterMinBytes
}

// gatherFits reports whether a point-to-point gather whose busiest
// receiver hears fanIn messages fits that receiver's receive ring. The
// receiver posts nothing before the messages arrive, so they queue in
// its 256-message ring, and a rank that has sent goes straight on: the
// operation that follows can send it as much again before it posts (a
// second gather). So two gathers' messages must fit the ring as
// exchange's window does, within burstRecvBudget. The flat sets' fan-in
// is N-1, which gives package baseline's linear gather N ≤ 128; past it
// the release-gated gather (gatherWith) runs, whose chunks wait for the
// root's release. Two back-to-back point-to-point gathers to a root that
// enters late overflow the ring from N=130 (TestGatherRingBound), and at
// N=256 a conformance pass with one point-to-point gather lost two
// messages (TestTwoLevelConformanceN256). The two-level gather's fan-in
// is twoLevelFanIn, which fits up to about N=500 at fanout 4. The
// point-to-point gather is also the faster schedule: the release-gated
// one over it reads, on the shared-uplink switch (fanout 4, seed 1, one
// cold gather):
//
//	N \ M (B)  100   500  1,000  1,424  1,500  2,000  5,000  10,000
//	  8       2.00  1.68   1.45   1.35   1.31   1.27   1.11    1.04
//	 16       1.67  1.34   1.21   1.17   1.16   1.15   1.07    1.03
//	 32       1.34  1.11   1.06   1.05   1.08   1.08   1.03    1.02
//	 64       1.19  1.00   1.00   1.00   1.05   1.04   1.08    1.04
//	128       1.11  0.95   0.96   0.97   1.32   1.09   1.05    1.07
//
// It gives up N=128 from 500 B to a frame (0.95–0.97) and the hub's
// N=8 gather from 1,000 B (0.68 and 0.75, TestFlatGuideline).
func gatherFits(fanIn int) bool {
	return 2*fanIn <= burstRecvBudget
}

// twoLevelFanIn is the most messages one rank hears in a two-level
// gather over t rooted at root: the root hears its segment's other
// members and the S-1 other leaders, another leader its segment's other
// members.
func twoLevelFanIn(t *topo.Map, root int) int {
	fanIn := len(t.Members(t.SegmentOf(root))) - 1 + t.Segments() - 1
	for s := range t.Segments() {
		fanIn = max(fanIn, len(t.Members(s))-1)
	}
	return fanIn
}

// allreduce reduces in two levels — members combine at their segment
// leader, leaders combine in one mpi.ReduceWalks region over t.Leaders()
// (the binomial tree of the flat reduce over a smaller group: one
// aggregate frame per segment across the uplinks) — then the root leader
// multicasts the result once. No scout frames at all: the reduction data
// itself gates every hop, and a rank posts its receive the instant its
// contribution is sent. That holds at 0 bytes too: a lone region is
// walked even when empty, so the root leader still hears from every
// segment before its fan-out.
func (tl *twoLevel) allreduce(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	t := usableTopo(c)
	if t == nil {
		return tl.flat.Allreduce(c, send, recv, dt, op)
	}
	me := c.Rank()
	mySeg := t.SegmentOf(me)
	members := t.Members(mySeg)
	leader := t.Leader(mySeg)

	cc := c.BeginColl()
	acc := append([]byte(nil), send...)
	if me != leader {
		if err := cc.Send(leader, phaseChunk, acc, transport.ClassData, false); err != nil {
			return err
		}
	} else {
		// Combine the segment's contributions in member-rank order, so
		// a floating-point result does not depend on arrival order.
		pending := make(map[int][]byte, len(members)-1)
		for i := 0; i < len(members)-1; i++ {
			m, err := cc.Recv(mpi.AnySource, phaseChunk)
			if err != nil {
				return err
			}
			pending[cc.SrcRank(m)] = m.Payload
		}
		for _, r := range members {
			if r == me {
				continue
			}
			p := pending[r]
			if len(p) != len(acc) {
				return fmt.Errorf("core: allreduce contribution from %d is %d bytes, want %d", r, len(p), len(acc))
			}
			if err := mpi.ReduceBytes(op, dt, acc, p); err != nil {
				return err
			}
		}
		// Leader tree: one walk over the leaders, toward segment 0's.
		if err := mpi.ReduceWalks(cc, t.Leaders(), []int{0, len(acc)}, phaseBlock, false, acc, dt, op); err != nil {
			return err
		}
	}

	// The fan-out is a broadcast of the result from the root leader
	// whose readiness proof is the reduction itself.
	root := t.Leader(0)
	if me == root {
		copy(recv, acc)
	}
	return runRound(c, bcastRound(recv, root), roundOptions{gather: noGather, repair: tl.rep})
}

// gather is two nested linear gathers over the bypass: every member
// sends its chunk to its segment's leader (opLeader), and every other
// leader sends its segment's block of chunks, in member order, to the
// root — only S-1 blocks cross the uplinks. Nothing is gated: as in the
// flat set's point-to-point gather, the receive ring of the busiest
// receiver absorbs two gathers' messages unposted (gatherFits), and
// under repair the stream carries the whole gather. Outside twoLevelWins
// and past gatherFits it is the flat gather.
func (tl *twoLevel) gather(c *mpi.Comm, send, recv []byte, root int) error {
	t := usableTopo(c)
	if t == nil || !twoLevelWins(t, c.Size(), len(send), twoLevelGatherMinN) || !gatherFits(twoLevelFanIn(t, root)) {
		return tl.flat.Gather(c, send, recv, root)
	}
	n, me := len(send), c.Rank()
	seg := t.SegmentOf(me)
	members := t.Members(seg)
	cc := c.BeginColl()
	if lead := opLeader(t, seg, root); me != lead {
		return cc.Send(lead, phaseChunk, send, transport.ClassData, false)
	}
	// The root collects into recv, hearing its segment's members and the
	// other leaders; any other leader collects its members' chunks into
	// its block, in member order.
	buf, at, expect := recv, func(r int) int { return r }, len(members)-1
	if me == root {
		expect += t.Segments() - 1
	} else {
		buf = make([]byte, n*len(members))
		at = func(r int) int { return slices.Index(members, r) }
	}
	copy(buf[at(me)*n:], send)
	for range expect {
		m, err := cc.Recv(mpi.AnySource, phaseChunk)
		if err != nil {
			return err
		}
		// A member's chunk, or another segment's block from its leader.
		src := cc.SrcRank(m)
		from := []int{src}
		if s := t.SegmentOf(src); s != seg {
			from = t.Members(s)
		}
		if len(m.Payload) != n*len(from) {
			return fmt.Errorf("core: gather message from %d is %d bytes, want %d", src, len(m.Payload), n*len(from))
		}
		for i, r := range from {
			copy(buf[at(r)*n:], m.Payload[i*n:(i+1)*n])
		}
	}
	if me == root {
		return nil
	}
	return cc.Send(root, phaseChunk, buf, transport.ClassData, false)
}

// scatter is the flat set's scatter as a segment round (scatterWith):
// after the binary scout gather toward the root, the root multicasts
// each segment's super-slice to the segment's group, so its
// transmissions fall from N-1 to at most S while per-receiver delivered
// bytes grow only by the segment fanout. Outside twoLevelWins it is the
// flat scatter.
func (tl *twoLevel) scatter(c *mpi.Comm, send, recv []byte, root int) error {
	t := usableTopo(c)
	if t == nil || !twoLevelWins(t, c.Size(), len(recv), twoLevelScatterMinN) {
		return tl.flat.Scatter(c, send, recv, root)
	}
	return scatterWith(c, send, recv, root, roundOptions{gather: gatherScoutsBinary, repair: tl.rep}, t)
}

// alltoall runs the personalized exchange hierarchically, where the flat
// sliced exchange makes N(N-1) per-slice transmissions: a burst over
// ringSegSends, in which after the barrier's N-1 scouts and one release
// every rank multicasts one block per segment, and keeps its own chunk
// of each block its segment hears. Inside flatAlltoallWins, and under
// repair, it is the flat set's burst of per-rank slices.
func (tl *twoLevel) alltoall(c *mpi.Comm, send, recv []byte) error {
	t := usableTopo(c)
	if t == nil || tl.rep {
		return tl.flat.Alltoall(c, send, recv)
	}
	size := c.Size()
	n := len(send) / size
	if flatAlltoallWins(size, n) {
		return tl.flat.Alltoall(c, send, recv)
	}
	me := c.Rank()
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	myMembers := t.Members(t.SegmentOf(me))
	myIdx := slices.Index(myMembers, me)
	blk := n * len(myMembers)
	return burst(c, roundOptions{gather: gatherScoutsBinary}, ringSegSends(t, me, send, n), segScope(t), func(r int, p []byte) error {
		if len(p) != blk {
			return fmt.Errorf("core: alltoall block from %d is %d bytes, want %d", r, len(p), blk)
		}
		copy(recv[r*n:(r+1)*n], p[myIdx*n:(myIdx+1)*n])
		return nil
	})
}
