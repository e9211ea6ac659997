package core

// Two-level (segment-leader) collectives for the shared-uplink fabric.
//
// The flat suite treats every pair of ranks as equidistant, which the
// figure 14n/15n N-sweeps show is exactly wrong on a fabric where
// stations share switch ports through half-duplex segments
// (simnet.SwitchShared): the N(N-1) scout frames of the flat rounds
// (the allgather's and the alltoall's under repair) all serialize on
// the shared uplinks, and at N=32 the scout term dominates the whole
// sub-frame region. The decomposition here is the classic
// two-level scheme of Karonis et al. (MagPIe / MPICH-G2) and the
// multi-core collectives of Zhou et al., applied to the paper's scout
// machinery:
//
//   - ranks scout-combine to their segment's leader over segment-local
//     traffic (a member's scout, chunk or reduction operand crosses its
//     own segment only — intra-segment unicast is not forwarded off the
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
// The scout economics per operation, with N ranks on S segments:
//
//	allgather:         lossless, the flat set's burst: the multicast
//	                   barrier's N-1 scouts and one release, then every
//	                   rank multicasts its own chunk — N data
//	                   multicasts, N·M bytes per segment wire, every
//	                   per-round gather collapsed into the one handshake.
//	                   There is nothing left for the segments to
//	                   localize. Under NACK repair the combine-based
//	                   schedule runs instead: (N-S) member scouts +
//	                   S(S-1) leader scouts + S segment releases, versus
//	                   the flat rounds' N(N-1) — the ~N + S² bound the
//	                   a6 table gates on; chunks converge on the leader
//	                   and S aggregate blocks are multicast in sequential
//	                   leader rounds the repair server can serve.
//	bcast:             N-1 scouts as before, but only S-1 cross the
//	                   uplinks (members scout their local leader).
//	gather:            (N-S) member scouts + (S-1) aggregate scouts;
//	                   chunks converge on the local leader first, and
//	                   only S-1 aggregate blocks cross the uplinks —
//	                   release-gated at both levels, so neither a leader
//	                   nor the root can be overrun.
//	allreduce:         zero scout frames — the reduction data itself
//	                   gates every hop (members combine at their leader,
//	                   leaders combine in one mpi.ReduceWalks walk over
//	                   the leader set, and the final multicast follows the
//	                   data it proves everyone contributed to).
//	scatter:           N-1 scouts (S-1 crossing uplinks), then at most S
//	                   segment-group multicasts of per-segment
//	                   super-slices in place of the flat N-1 per-rank
//	                   slice transmissions.
//	alltoall:          the allgather's burst handshake — N-1 scouts and
//	                   one release, as the flat lossless alltoall's
//	                   burst, versus the flat rounds' N(N-1) under
//	                   repair, 65,280 at N=256. Lossless data path: once
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
//	                   NACK repair members ship whole buffers to their
//	                   leader and S sequential leader rounds exchange
//	                   per-segment super-slice blocks, gated by
//	                   (N-S) + S(S-1) scouts.
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
// engine: every whole-communicator multicast is gated on evidence that
// every rank has entered (scouts, or the reduction data itself), and
// each rank's window between proving readiness and posting its receive
// contains no simulated work. Segment-scoped releases are gated on the
// member scouts they release (segmentCombine). Under the resilient
// variant every multicast — releases included — runs under the
// fragment-granular NACK repair protocol of rounds.go (awaitMulticast on
// the listening side, serveRepairs and collectChunks on the sending
// side), and all point-to-point traffic already rides the reliable
// stream, so the set survives combined multicast + p2p loss like the
// flat resilient suite.

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/topo"
	"repro/internal/transport"
)

// TwoLevelAlgorithms returns the topology-aware collective set
// (registered in bench as mcast-2level): all seven collectives
// hierarchical over the device topology, the flat binary suite where
// there is none, and the flat set's other collectives (package
// baseline's).
func TwoLevelAlgorithms() mpi.Algorithms {
	return twoLevelSet(&twoLevel{flat: Algorithms(Binary)})
}

// TwoLevelResilientAlgorithms is TwoLevelAlgorithms with every
// multicast — leader rounds, fan-outs and segment releases — protected
// by the NACK repair protocol, over the flat resilient set.
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
	algs.Bcast = tl.bcast
	algs.Barrier = tl.barrier
	algs.Allgather = tl.allgather
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

// twoLevelRoundGather is the hierarchical scout gather toward the round
// sender: members scout to their segment's op-leader, op-leaders scout
// to the sender once their whole segment has checked in. The sender
// learns "everyone is ready" from (its own segment's members + S-1
// leaders) scouts, of which only S-1 crossed an uplink. Forwarding-free
// at every hop — each rank sends at most one direct scout.
func twoLevelRoundGather(t *topo.Map) func(cc mpi.CollCtx, root int) error {
	return func(cc mpi.CollCtx, root int) error {
		me := cc.Comm().Rank()
		lead := opLeader(t, t.SegmentOf(me), root)
		if me != lead {
			return cc.Send(lead, phaseScout, nil, transport.ClassScout, false)
		}
		expect := len(t.Members(t.SegmentOf(me))) - 1
		if me == root {
			expect += t.Segments() - 1
		}
		if err := recvScouts(cc, phaseScout, expect); err != nil {
			return err
		}
		if me != root {
			return cc.Send(root, phaseScout, nil, transport.ClassScout, false)
		}
		return nil
	}
}

// leaderRoundGather is the leaders-only scout gather of the aggregate
// rounds: every segment leader but the sender scouts directly to the
// sender; non-leaders take no part (their readiness was proven into
// their leader's aggregate during the local phase). Forwarding-free.
func leaderRoundGather(t *topo.Map) func(cc mpi.CollCtx, root int) error {
	return func(cc mpi.CollCtx, root int) error {
		me := cc.Comm().Rank()
		if t.Leader(t.SegmentOf(me)) != me {
			return nil
		}
		if me != root {
			return cc.Send(root, phaseScout, nil, transport.ClassScout, false)
		}
		return recvScouts(cc, phaseScout, t.Segments()-1)
	}
}

// recvScouts receives n messages of phase from any source: a scout
// count, where only their arrival matters.
func recvScouts(cc mpi.CollCtx, phase, n int) error {
	for range n {
		if _, err := cc.Recv(mpi.AnySource, phase); err != nil {
			return err
		}
	}
	return nil
}

// bcast is the hierarchical broadcast: the two-level scout gather toward
// root, then one whole-communicator multicast (which the fabric already
// delivers once per segment).
func (tl *twoLevel) bcast(c *mpi.Comm, buf []byte, root int) error {
	t := usableTopo(c)
	if t == nil {
		return tl.flat.Bcast(c, buf, root)
	}
	return runRounds(c, []roundPlan{bcastRound(buf, root)}, roundOptions{gather: twoLevelRoundGather(t), repair: tl.rep})
}

// barrier is the hierarchical barrier: the two-level scout gather toward
// rank 0, then one empty release multicast.
func (tl *twoLevel) barrier(c *mpi.Comm) error {
	t := usableTopo(c)
	if t == nil {
		return tl.flat.Barrier(c)
	}
	return runRounds(c, []roundPlan{barrierRound()}, roundOptions{gather: twoLevelRoundGather(t), repair: tl.rep})
}

// segScope is the scope of a segment round: every rank listens on its
// own segment's group.
func segScope(t *topo.Map) func(rank int) mpi.Scope {
	return func(rank int) mpi.Scope { return mpi.Seg(t.SegmentOf(rank)) }
}

// segSends is the send list of a segment round: block(s) to the group of
// every segment s, in order — except a segment whose only member is the
// sender, where nobody would receive it.
func segSends(t *topo.Map, sender int, block func(seg int) []byte) func() []send {
	return func() []send {
		sends := make([]send, 0, t.Segments())
		for s := 0; s < t.Segments(); s++ {
			if ms := t.Members(s); len(ms) > 1 || ms[0] != sender {
				sends = append(sends, send{scope: mpi.Seg(s), payload: block(s)})
			}
		}
		return sends
	}
}

// largestSegment returns the member count of t's largest segment.
func largestSegment(t *topo.Map) int {
	largest := 0
	for s := 0; s < t.Segments(); s++ {
		largest = max(largest, len(t.Members(s)))
	}
	return largest
}

// segmentCombine runs one rank's part of the release-gated combine of a
// segment's chunks at lead, one of its members — all of it segment-local
// traffic that never crosses an uplink. A member scouts lead, awaits
// lead's release on the segment's scope (under NACK repair with rep) and
// sends payload. lead collects the scouts, then releases and places
// every other member's chunk (collectChunks); of its own
// payload only the length is used — chunks are equal-sized. A segment of
// one has nothing to exchange.
func segmentCombine(cc mpi.CollCtx, t *topo.Map, lead int, payload []byte, rep bool, place func(r int, p []byte)) error {
	me := cc.Comm().Rank()
	seg := t.SegmentOf(me)
	others := len(t.Members(seg)) - 1
	if me != lead {
		if err := cc.Send(lead, phaseScout, nil, transport.ClassScout, false); err != nil {
			return err
		}
		if _, err := awaitMulticast(cc, lead, mpi.Seg(seg), 0, rep); err != nil {
			return err
		}
		return cc.Send(lead, phaseChunk, payload, transport.ClassData, false)
	}
	if others == 0 {
		return nil
	}
	if err := recvScouts(cc, phaseScout, others); err != nil {
		return err
	}
	return collectChunks(cc, mpi.Seg(seg), others, len(payload), place)
}

// allgather gathers every rank's chunk to every rank. Lossless it is the
// flat set's allgather — one burst, with nothing for the segments to
// localize: its handshake is N-1 scouts and one release, and every rank
// multicasts its own chunk. Under repair it runs in two levels: a
// release-gated segment-local combine to each leader, then S sequential
// leader rounds each multicasting one segment's aggregate block to the
// whole communicator.
func (tl *twoLevel) allgather(c *mpi.Comm, send, recv []byte) error {
	t := usableTopo(c)
	if t == nil || !tl.rep {
		return tl.flat.Allgather(c, send, recv)
	}
	n := len(send)
	if len(recv) != n*c.Size() {
		return fmt.Errorf("core: allgather recv buffer %d bytes, want %d", len(recv), n*c.Size())
	}
	me := c.Rank()
	copy(recv[me*n:], send)
	members := t.Members(t.SegmentOf(me))
	leader := t.Leader(t.SegmentOf(me))

	// Segment-local combine. Every rank opens the collective context
	// (the context sequence must advance identically everywhere).
	var block []byte // leader-only: this segment's aggregate, member order
	if me == leader {
		block = make([]byte, n*len(members))
		copy(block, send) // a leader is its segment's first member
	}
	cc := c.BeginColl()
	err := segmentCombine(cc, t, leader, send, tl.rep, func(r int, p []byte) {
		copy(block[slices.Index(members, r)*n:], p)
		copy(recv[r*n:], p)
	})
	if err != nil {
		return err
	}

	// Leader rounds: round s multicasts segment s's aggregate block to
	// the whole communicator; every rank scatters it into recv. Only the
	// leaders scout — the member scouts already proved their segments in.
	rounds := make([]roundPlan, t.Segments())
	for s := range rounds {
		ms := t.Members(s)
		bytes := n * len(ms)
		rounds[s] = roundPlan{
			sender: t.Leader(s),
			class:  transport.ClassData,
			bytes:  bytes,
			sends:  wholeSend(block),
			scope:  wholeScope,
			consume: func(p []byte) error {
				if len(p) != bytes {
					return fmt.Errorf("core: allgather aggregate block is %d bytes, want %d", len(p), bytes)
				}
				for i, r := range ms {
					copy(recv[r*n:(r+1)*n], p[i*n:(i+1)*n])
				}
				return nil
			},
		}
	}
	// The sequential round schedule the NACK server needs; the lossless
	// path took the flat burst above.
	return runRounds(c, rounds, roundOptions{gather: leaderRoundGather(t), repair: tl.rep})
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
		ms := t.Members(d)
		if len(ms) == 1 && ms[0] == me {
			continue
		}
		blk := make([]byte, 0, n*len(ms))
		for _, r := range ms {
			blk = append(blk, buf[r*n:(r+1)*n]...)
		}
		sends = append(sends, send{scope: mpi.Seg(d), payload: blk})
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
	if len(recv) != len(send) {
		return fmt.Errorf("core: allreduce recv buffer %d bytes, want %d", len(recv), len(send))
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
	return runRounds(c, []roundPlan{bcastRound(recv, root)}, roundOptions{gather: noGather, repair: tl.rep})
}

// gather collects chunks in two levels: members combine at their segment
// leader (release-gated locally), leaders scout their aggregate to the
// root, and the root releases each leader individually (point-to-point
// control over the reliable stream) before its block send — so neither a
// leader nor the root's port can be overrun, and only S-1 aggregate
// blocks cross the uplink fabric.
func (tl *twoLevel) gather(c *mpi.Comm, send, recv []byte, root int) error {
	t := usableTopo(c)
	if t == nil {
		return tl.flat.Gather(c, send, recv, root)
	}
	n := len(send)
	me := c.Rank()
	if me == root && len(recv) != n*c.Size() {
		return fmt.Errorf("core: gather recv buffer %d bytes, want %d", len(recv), n*c.Size())
	}
	members := t.Members(t.SegmentOf(me))
	lead := opLeader(t, t.SegmentOf(me), root)

	cc := c.BeginColl()
	// The root (which leads its own segment) collects into recv
	// directly, any other leader into an aggregate block in member order.
	var block []byte
	place := func(r int, p []byte) { copy(recv[r*n:], p) }
	switch me {
	case root:
		copy(recv[me*n:], send)
	case lead:
		block = make([]byte, n*len(members))
		copy(block[slices.Index(members, me)*n:], send)
		place = func(r int, p []byte) { copy(block[slices.Index(members, r)*n:], p) }
	}
	if err := segmentCombine(cc, t, lead, send, tl.rep, place); err != nil || me != lead {
		return err
	}
	if me != root {
		// Aggregate level: prove the segment in, wait for the root's
		// individual release (point-to-point — the reliable stream makes
		// it loss-proof without any multicast machinery), send the block.
		if err := cc.Send(root, phaseLeaderScout, nil, transport.ClassScout, false); err != nil {
			return err
		}
		if _, err := cc.Recv(root, phaseRelease); err != nil {
			return err
		}
		return cc.Send(root, phaseBlock, block, transport.ClassData, false)
	}

	// Root: gate the aggregate sends, then place each segment's block.
	if err := recvScouts(cc, phaseLeaderScout, t.Segments()-1); err != nil {
		return err
	}
	for s := 0; s < t.Segments(); s++ {
		if l := opLeader(t, s, root); l != root {
			if err := cc.Send(l, phaseRelease, nil, transport.ClassControl, false); err != nil {
				return err
			}
		}
	}
	for i := 0; i < t.Segments()-1; i++ {
		m, err := cc.Recv(mpi.AnySource, phaseBlock)
		if err != nil {
			return err
		}
		l := cc.SrcRank(m)
		ms := t.Members(t.SegmentOf(l))
		if len(m.Payload) != n*len(ms) {
			return fmt.Errorf("core: gather block from %d is %d bytes, want %d", l, len(m.Payload), n*len(ms))
		}
		for i2, r := range ms {
			copy(recv[r*n:], m.Payload[i2*n:(i2+1)*n])
		}
	}
	return nil
}

// scatter distributes root's buffer as one segment round: after the
// two-level scout gather (N-1 scouts, only S-1 crossing the uplinks —
// the flat sliced scatter's N-1 scouts all converge on the root's port),
// the root multicasts each segment's super-slice — the concatenation of
// that segment's per-rank chunks in member order — to the segment's
// group address, one egress transmission per port instead of one per
// rank. Each receiver's NIC accepts only its own segment's block, from
// which it keeps its chunk, so per-receiver delivered bytes grow only by
// the segment fanout while the root's transmissions fall from N-1 to at
// most S.
func (tl *twoLevel) scatter(c *mpi.Comm, send, recv []byte, root int) error {
	t := usableTopo(c)
	if t == nil {
		return tl.flat.Scatter(c, send, recv, root)
	}
	n := len(recv)
	me := c.Rank()
	if me == root && len(send) != n*c.Size() {
		return fmt.Errorf("core: scatter send buffer %d bytes, want %d", len(send), n*c.Size())
	}
	myMembers := t.Members(t.SegmentOf(me))
	myIdx := slices.Index(myMembers, me)
	round := roundPlan{
		sender: root,
		class:  transport.ClassData,
		bytes:  n * largestSegment(t),
		// Full member order — including the root's own chunk where it
		// appears — keeps the receiver's index arithmetic uniform; the
		// root's chunk is placed locally below.
		sends: segSends(t, root, func(seg int) []byte {
			ms := t.Members(seg)
			blk := make([]byte, n*len(ms))
			for i, r := range ms {
				copy(blk[i*n:], send[r*n:(r+1)*n])
			}
			return blk
		}),
		scope: segScope(t),
		consume: func(p []byte) error {
			if len(p) != n*len(myMembers) {
				return fmt.Errorf("core: scatter segment block is %d bytes, want %d", len(p), n*len(myMembers))
			}
			copy(recv, p[myIdx*n:(myIdx+1)*n])
			return nil
		},
	}
	if err := runRounds(c, []roundPlan{round}, roundOptions{gather: twoLevelRoundGather(t), repair: tl.rep}); err != nil {
		return err
	}
	if me == root {
		copy(recv, send[root*n:(root+1)*n])
	}
	return nil
}

// alltoall runs the personalized exchange hierarchically, where the flat
// sliced exchange makes N(N-1) per-slice transmissions (and under repair
// pays N(N-1) scouts, 65,280 at N=256). Lossless, it is a burst over
// ringSegSends: after the barrier's N-1 scouts and one release every
// rank multicasts one block per segment, and keeps its own chunk of each
// block its segment hears — except inside flatAlltoallWins, where it is
// the flat set's burst of per-rank slices. Under repair it runs in two
// levels. Phase A: each segment's
// members ship their whole send buffer to the segment leader over the
// release-gated local combine (segment-local unicast — never crossing
// an uplink). Phase B: S sequential segment rounds among the leaders —
// round s's leader multicasts, to each destination segment d, one
// super-slice holding every chunk from segment s's members to segment
// d's members — gated by S(S-1) leader scouts.
func (tl *twoLevel) alltoall(c *mpi.Comm, send, recv []byte) error {
	t := usableTopo(c)
	if t == nil {
		return tl.flat.Alltoall(c, send, recv)
	}
	size := c.Size()
	if len(send)%size != 0 || len(recv) != len(send) {
		return fmt.Errorf("core: alltoall buffers %d/%d bytes for %d ranks", len(send), len(recv), size)
	}
	n := len(send) / size
	if !tl.rep && flatAlltoallWins(size, n) {
		return tl.flat.Alltoall(c, send, recv)
	}
	me := c.Rank()
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	myMembers := t.Members(t.SegmentOf(me))
	myIdx := slices.Index(myMembers, me)
	if !tl.rep {
		blk := n * len(myMembers)
		return burst(c, gatherScoutsBinary, ringSegSends(t, me, send, n), mpi.Seg(t.SegmentOf(me)), func(r int, p []byte) error {
			if len(p) != blk {
				return fmt.Errorf("core: alltoall block from %d is %d bytes, want %d", r, len(p), blk)
			}
			copy(recv[r*n:(r+1)*n], p[myIdx*n:(myIdx+1)*n])
			return nil
		})
	}

	// Phase A: segment-local combine of whole send buffers at the
	// leader. The members' chunks addressed to the leader itself never
	// ride a phase-B multicast; it lifts them out as they arrive.
	cc := c.BeginColl()
	bufs := map[int][]byte{me: send}
	err := segmentCombine(cc, t, t.Leader(t.SegmentOf(me)), send, tl.rep, func(r int, p []byte) {
		bufs[r] = p
		copy(recv[r*n:(r+1)*n], p[me*n:(me+1)*n])
	})
	if err != nil {
		return err
	}

	// The super-slice from this rank's segment to segment d, built where
	// it is sent — on the leader, which phase A left holding every
	// member's buffer. It is laid out grouped by destination member:
	// position (j·|s| + i)·n holds the chunk from source member i to
	// destination member j, so receiver j extracts one contiguous |s|·n
	// region.
	block := func(d int) []byte {
		dm := t.Members(d)
		blk := make([]byte, n*len(myMembers)*len(dm))
		for j, dst := range dm {
			for i, src := range myMembers {
				copy(blk[(j*len(myMembers)+i)*n:], bufs[src][dst*n:(dst+1)*n])
			}
		}
		return blk
	}
	largest := largestSegment(t)
	rounds := make([]roundPlan, t.Segments())
	for s := range rounds {
		sm := t.Members(s)
		rounds[s] = roundPlan{
			sender: t.Leader(s),
			class:  transport.ClassData,
			bytes:  n * largest * largest,
			// The sender's own segment hears the round too (chunks for
			// the sender itself were lifted out in phase A).
			sends: segSends(t, t.Leader(s), block),
			scope: segScope(t),
			consume: func(p []byte) error {
				if len(p) != n*len(sm)*len(myMembers) {
					return fmt.Errorf("core: alltoall segment block is %d bytes, want %d", len(p), n*len(sm)*len(myMembers))
				}
				base := myIdx * len(sm) * n
				for i, r := range sm {
					copy(recv[r*n:(r+1)*n], p[base+i*n:base+(i+1)*n])
				}
				return nil
			},
		}
	}
	return runRounds(c, rounds, roundOptions{gather: leaderRoundGather(t), repair: tl.rep})
}
