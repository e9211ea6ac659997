package core

// The multicast collective suite: the paper stops at Bcast and Barrier,
// but its scout machinery composes directly into the richer rooted and
// all-to-all collectives (the "future work" direction of §6, and the
// composition results of Träff's collective-decomposition work). Every
// operation below is built from the same two primitives as the paper's
// broadcast — a scout gather that proves every receiver has posted, and
// a single IP multicast that therefore cannot be lost. The operations
// are reached through the sets — Algorithms(mode), ResilientAlgorithms,
// TwoLevelAlgorithms — which pick the scout scheme, the schedule and the
// reliability class, and come complete with package baseline's Reduce,
// Scan and ReduceScatter; only the variant a set does not cover
// (AllreduceMcastChunked) is exported by name.
//
// Frame-count model (N ranks, per-rank chunk of M bytes, frame payload
// T, s = N-1 scout frames per scout-gated multicast):
//
//	allgather:       one burst — the multicast barrier's s scouts
//	                 + 1 release, then every rank multicasts its chunk
//	                 at once: N·ceil(M/T) data frames, versus
//	                 N(N-1)·ceil(M/T) for the MPICH ring allgather.
//	                 On one collision domain (a hub) the ranks take
//	                 their turns in slot order, the same frames. Past
//	                 N=256 each further window of 256 senders adds one
//	                 drain barrier, s scouts + 1 release. Under repair
//	                 it runs N rounds, N(N-1) scouts + N·ceil(M/T) data
//	                 frames. Scouts are empty 56-byte frames, so once M
//	                 exceeds one frame the data saving dominates on a
//	                 shared medium.
//	allreduce:       binomial reduce to rank 0 ((N-1)·ceil(M/T) p2p
//	                 data frames over the UDP bypass) + one scout-gated
//	                 multicast (s scouts + ceil(M/T) data), versus
//	                 2(N-1)·ceil(M/T) reliable frames for the MPICH
//	                 reduce+broadcast composition. The binomial funnel
//	                 makes rank 0 absorb log2(N)·M bytes;
//	                 AllreduceMcastChunked (below) spreads the reduction
//	                 over per-slice walks of the same tree (one
//	                 mpi.ReduceWalks call per step; the binomial reduce
//	                 is one walk over rank order), so no rank moves more
//	                 than ~2M bytes end to end — N(N-1) p2p messages, or
//	                 N((F-1) + (S-1)) on S segments of F members each —
//	                 and gathers the reduced slices with no scouts (the
//	                 reduce-scatter proves entry), past N=256 only the
//	                 exchange's drain barriers.
//	scatter:         s scouts + (N-1)·ceil(M/T) data frames: the root
//	                 multicasts each rank's slice to that rank's private
//	                 slice group, so a receiver's NIC delivers exactly
//	                 its own M bytes — the pairwise-unicast byte count —
//	                 while the send stays on the connectionless bypass
//	                 (no TCP penalty, no kernel acks) and stays gated.
//	gather:          s scouts + 1 multicast release + (N-1)·ceil(M/T)
//	                 chunk frames. The data still has to converge on the
//	                 root, so no frame is saved; the release gates the
//	                 senders until the root has entered the gather, which
//	                 bounds the root's unexpected-message queue and
//	                 prevents the fast-senders-overrun-one-receiver
//	                 failure mode of experiment A4.
//	alltoall:        one burst — the multicast barrier's s scouts + 1
//	                 release, then every rank multicasts its N-1 slices,
//	                 each to its destination's slice group, in ring
//	                 order: N(N-1)·ceil(M/T) data frames, the same
//	                 targeted byte count as the pairwise baseline, each
//	                 receiver delivered only its (N-1)·M bytes, but
//	                 release-gated (no overrun) and with no per-message
//	                 TCP penalty or kernel-ack frames. On one collision
//	                 domain the ranks take their turns in slot order,
//	                 each sending the next rank's slice last; past
//	                 N=256, in windows as the allgather. Under repair it
//	                 runs N sliced scatter rounds = N(N-1) scouts + the
//	                 same data frames.
//
// Each round opens its own collective operation (BeginColl), so the
// per-operation sequence number keeps back-to-back multicasts of one
// collective apart — the same safe-program ordering argument as §4.
// The rounds themselves run on the shared engine in rounds.go, one after
// another (the paper's composition), and optionally under the NACK
// repair protocol (resilient.go) that survives in-flight fragment loss.

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/mpi"
	"repro/internal/topo"
	"repro/internal/transport"
)

// allgatherWith gathers every rank's chunk to every rank. Lossless it
// is one burst: after the handshake every rank multicasts its chunk
// (exchange). Under repair it runs N scout-gated rounds on the round
// engine; in round r rank r multicasts its chunk once and every other
// rank receives it.
func allgatherWith(c *mpi.Comm, send, recv []byte, opt roundOptions) error {
	size := c.Size()
	n := len(send)
	if len(recv) != n*size {
		return fmt.Errorf("core: allgather recv buffer %d bytes, want %d", len(recv), n*size)
	}
	copy(recv[c.Rank()*n:], send)
	if size == 1 {
		return nil
	}
	place := func(r int, p []byte) error {
		if len(p) != n {
			return fmt.Errorf("core: allgather chunk from %d is %d bytes, want %d", r, len(p), n)
		}
		copy(recv[r*n:(r+1)*n], p)
		return nil
	}
	if !opt.repair {
		return burst(c, opt.gather, wholeSend(send)(), mpi.Whole, place)
	}
	rounds := make([]roundPlan, size)
	for r := range rounds {
		rounds[r] = roundPlan{
			sender:  r,
			class:   transport.ClassData,
			bytes:   n,
			sends:   wholeSend(recv[r*n : (r+1)*n]),
			scope:   wholeScope,
			consume: func(p []byte) error { return place(r, p) },
		}
	}
	return runRounds(c, rounds, opt)
}

// burstRecvBudget bounds the multicasts exchange leaves undrained at one
// rank: while a rank transmits its own data it is in no receive, so the
// foreign multicasts of its window queue in the device's receive ring,
// which must absorb them without overflow — the simulator's default ring
// holds 256 messages, and this leaves one slot to spare. So exchange
// lets at most burstRecvBudget+1 slots fire between two drains.
const burstRecvBudget = 255

// exchangeRecvs is the count of standing descriptors (Comm.PostRecvs) a
// rank posts before the evidence of an exchange over slots slots: one
// per slot, and one per release of the barrier that drains each window
// after the first.
func exchangeRecvs(slots int) int {
	return slots + (slots-1)/(burstRecvBudget+1)
}

// oneCollisionDomain reports whether c's declared topology is a single
// segment — a hub, or one shared uplink segment — where every station
// contends for the same medium.
func oneCollisionDomain(c *mpi.Comm) bool {
	t := c.Topo()
	return t != nil && t.Segments() == 1
}

// burst is the lossless data path of the allgather and the alltoall
// (flat and two-level): standing descriptors for the foreign multicasts
// and the releases, a handshake that is the barrier's round on the round
// engine over gather's scouts (N-1 scouts and one release — the paper's
// Barrier), then exchange with one slot per rank. Every per-round
// gather collapses into that one handshake.
func burst(c *mpi.Comm, gather func(cc mpi.CollCtx, root int) error, sends []send, scope mpi.Scope, consume func(r int, p []byte) error) error {
	release := c.PostRecvs(exchangeRecvs(c.Size()))
	defer release()
	if err := runRounds(c, []roundPlan{barrierRound()}, roundOptions{gather: gather}); err != nil {
		return err
	}
	senders := make([]int, c.Size())
	for r := range senders {
		senders[r] = r
	}
	return exchange(c, senders, sends, scope, consume)
}

// exchange is the data phase that follows evidence that every rank has
// entered and posted its standing descriptors (burst's handshake, or the
// chunked allreduce's reduce-scatter). senders[k] multicasts at slot k,
// or nobody where it is -1. The slots run in windows of
// burstRecvBudget+1: window 0 follows the caller's evidence, and every
// later one waits behind the paper's barrier (barrierRound over
// gatherScoutsBinary), which no rank enters before it has drained the
// window before. So no rank ever holds more than burstRecvBudget
// undrained foreign multicasts, which is what the device's 256-message
// receive ring bounds; at N ≤ 256 there is one window and no barrier.
// Within a window one context per slot is opened in slot order, and this
// rank consumes every other sending slot's multicast on scope in slot
// order, which keeps the multicast staleness watermark monotone. When
// this rank fires its own sends depends on the medium:
//
//   - On one collision domain, at its slot: it first consumes the
//     window's earlier slots, so only one station sends data at a time.
//     N stations transmitting at once there exhaust CSMA/CD's attempt
//     limit and drop frames, which a lossless exchange cannot survive.
//   - Anywhere else, first in its window, before consuming anything, so
//     transmissions overlap fully.
//
// A span needs only this rank's track, so the slot contexts record
// them: chunk-mcast on this rank's own slot, chunk-consume on the
// window's first.
func exchange(c *mpi.Comm, senders []int, sends []send, scope mpi.Scope, consume func(k int, p []byte) error) error {
	for lo := 0; lo < len(senders); lo += burstRecvBudget + 1 {
		if lo > 0 {
			if err := runRounds(c, []roundPlan{barrierRound()}, roundOptions{gather: gatherScoutsBinary}); err != nil {
				return err
			}
		}
		window := senders[lo:min(lo+burstRecvBudget+1, len(senders))]
		if err := exchangeWindow(c, window, sends, scope, func(k int, p []byte) error { return consume(lo+k, p) }); err != nil {
			return err
		}
	}
	return nil
}

// exchangeWindow runs one window of exchange's slots.
func exchangeWindow(c *mpi.Comm, senders []int, sends []send, scope mpi.Scope, consume func(k int, p []byte) error) error {
	me := c.Rank()
	inTurn := oneCollisionDomain(c)
	ccs := make([]mpi.CollCtx, len(senders))
	for k := range senders {
		ccs[k] = c.BeginColl()
	}
	fire := func(cc mpi.CollCtx) error {
		cc.SpanBegin("chunk-mcast")
		defer cc.SpanEnd("chunk-mcast")
		for _, s := range sends {
			if err := cc.Multicast(s.scope, s.payload, transport.ClassData); err != nil {
				return err
			}
		}
		return nil
	}
	if k := slices.Index(senders, me); k >= 0 && !inTurn {
		if err := fire(ccs[k]); err != nil {
			return err
		}
	}
	ccs[0].SpanBegin("chunk-consume")
	defer ccs[0].SpanEnd("chunk-consume")
	for k, r := range senders {
		if r == me && inTurn {
			if err := fire(ccs[k]); err != nil {
				return err
			}
		}
		if r == me || r < 0 {
			continue
		}
		m, err := ccs[k].RecvMulticast(scope)
		if err != nil {
			return err
		}
		if err := consume(k, m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// alltoallWith runs the personalized exchange. Lossless it is one
// burst: after the handshake every rank multicasts each destination
// slice of its send buffer to that rank's slice group, in ring order
// (ringSliceSends), and consumes the slice each other rank addressed to
// it. Under repair it runs N scout-gated sliced scatter rounds: in
// round r rank r multicasts its slices and every other rank receives
// exactly the one addressed to it. Either way the wire carries the same
// N(N-1)·ceil(M/T) targeted data frames as the pairwise baseline, but
// over the connectionless bypass (no TCP penalty, no kernel acks), with
// every receiver delivered only its own (N-1)·M bytes, and every send
// gated on evidence that its receivers have posted, so no set of fast
// senders can overrun one receiver (the A4 failure mode this collective
// stresses hardest).
func alltoallWith(c *mpi.Comm, send, recv []byte, opt roundOptions) error {
	size := c.Size()
	if len(send)%size != 0 || len(recv) != len(send) {
		return fmt.Errorf("core: alltoall buffers %d/%d bytes for %d ranks", len(send), len(recv), size)
	}
	n := len(send) / size
	me := c.Rank()
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	if size == 1 {
		return nil
	}
	place := func(r int, p []byte) error {
		if len(p) != n {
			return fmt.Errorf("core: alltoall slice from %d is %d bytes, want %d", r, len(p), n)
		}
		copy(recv[r*n:(r+1)*n], p)
		return nil
	}
	if !opt.repair {
		// On a switch the ring starts at me+1. On one collision domain,
		// where the ranks take turns, it starts at me+2: the next rank's
		// slice goes last, so the owner of the next slot starts only
		// after this rank's last frame.
		after := me
		if oneCollisionDomain(c) {
			after = (me + 1) % size
		}
		return burst(c, opt.gather, ringSliceSends(after, me, size, send), mpi.Slice(me), place)
	}
	rounds := make([]roundPlan, size)
	for r := range rounds {
		rounds[r] = roundPlan{
			sender:  r,
			class:   transport.ClassData,
			bytes:   n,
			sends:   sliceSends(send, size, r),
			scope:   mpi.Slice,
			consume: func(p []byte) error { return place(r, p) },
		}
	}
	return runRounds(c, rounds, opt)
}

// ringSliceSends is the burst alltoall's send list at rank me: buf is
// size equal slices, and each other rank's goes to that rank's slice
// group, taking the ranks around the ring from the one after after.
// Every rank starting at a different destination is what keeps the
// slices apart: in the common order 0, 1, … all N ranks' first slices
// would converge on rank 0's port, then all on rank 1's, one port at a
// time.
func ringSliceSends(after, me, size int, buf []byte) []send {
	n := len(buf) / size
	sends := make([]send, 0, size-1)
	for d := range ringAfter(after, size) {
		if d != me {
			sends = append(sends, send{scope: mpi.Slice(d), payload: buf[d*n : (d+1)*n]})
		}
	}
	return sends
}

// ringAfter yields 0 … n-1 around the ring from the one after k: k+1,
// k+2, …, n-1, 0, …, k. The burst alltoalls take their destinations —
// ranks on the flat path, segments on the two-level one — in this order.
func ringAfter(k, n int) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := 1; i <= n; i++ {
			if !yield((k + i) % n) {
				return
			}
		}
	}
}

// sliceBounds splits a buffer of total bytes holding total/extent
// elements into size contiguous slices aligned to the element extent,
// front-loading the remainder. It returns size+1 byte offsets; slice s
// spans [bounds[s], bounds[s+1]) and may be empty when there are fewer
// elements than ranks. Every rank computes identical bounds locally.
func sliceBounds(total, extent, size int) []int {
	elems := total / extent
	base, extra := elems/size, elems%size
	bounds := make([]int, size+1)
	off := 0
	for s := 0; s < size; s++ {
		bounds[s] = off
		n := base
		if s < extra {
			n++
		}
		off += n * extent
	}
	bounds[size] = off
	return bounds
}

// AllreduceMcastChunked is the Rabenseifner-style chunked composition:
// a reduce-scatter built from per-slice binomial walks (one
// mpi.ReduceWalks call per step, the walk every reduction runs), after
// which each rank holds one fully reduced slice, followed by an
// allgather that multicasts each reduced slice exactly once
// (gatherSlices). Slices split the buffer in whole elements, which
// Comm.Allreduce checks at every rank before any message moves.
//
// The reduce-scatter runs in two levels where usableTopo finds S segments
// of F members each — Karonis's multilevel and Träff's lane
// decomposition of the reduce-scatter. Slices are laid out lane-major:
// the rank with member index i in segment s owns the slice at position
// i·S + s, so the S slices of lane i (the ranks with member index i) are
// one contiguous region. A segment step of F walks among the rank's own
// segment reduces lane j's region toward member j (F-1 messages per
// rank, all segment-local); a lane step of S walks among the rank's lane
// reduces each of the lane's slices toward its owner (S-1 messages per
// rank across the uplinks): 66 messages per rank at N=256, F=4, in place
// of 255. Elsewhere — no usable topology, or segments of unequal size —
// every rank owns the slice at its own rank and one step of N walks
// among all ranks reduces it (N-1 messages per rank).
//
// The allgather sends no scouts and no release: the reduce-scatter
// already proves what scouts would, on any fabric. Every rank posts its
// standing descriptors (Comm.PostRecvs) on entry, before its first send.
// On the flat step the owner of a non-empty slice is the root of that
// slice's walk over all ranks, so every rank has sent into it; on the
// two-level path it is the root of its lane walk, so all S lane peers
// contributed, and each of them sent only after its segment step
// returned, where it was the root of a walk over its whole segment.
// Either way a rank multicasts a slice only after every rank has posted,
// so no multicast of the allgather can meet an unposted receiver, and
// its later windows (exchange) wait behind the barrier as every
// exchange's do.
//
// The byte economics against the sets' binomial-reduce + bcast allreduce:
// both put ~(N-1)·M + M data bytes on the wire (a reduction cannot move
// less), but the funnel disappears — rank 0 absorbs log2(N)·M bytes in
// the binomial reduce, while here every rank moves ~M in and ~M out on
// the reduce half (~2M end to end) regardless of N, and the multicast
// allgather half delivers each receiver the M result bytes — exactly,
// except that a member hears its own slice back in its leader's
// multicast (asserted by TestChunkedAllreduceByteFunnel).
//
// The reduction combines slice contributions in binomial-tree order —
// segment then lane on the two-level path — so op should be commutative
// and associative (every built-in mpi.Op is; floating-point sums may
// round differently from rank order).
func AllreduceMcastChunked(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	size := c.Size()
	if len(recv) != len(send) {
		return fmt.Errorf("core: allreduce recv buffer %d bytes, want %d", len(recv), len(send))
	}
	copy(recv, send)
	if size == 1 {
		return nil
	}
	bounds := sliceBounds(len(send), dt.Size(), size)
	t := usableTopo(c)
	lanes := evenSegments(t)
	// pos[r] is the slice rank r reduces and multicasts: lane-major on
	// even segments, rank order elsewhere.
	pos := make([]int, size)
	for r := range pos {
		pos[r] = r
		if lanes > 0 {
			seg := t.SegmentOf(r)
			pos[r] = slices.Index(t.Members(seg), r)*t.Segments() + seg
		}
	}

	slice := func(r int) []byte { return recv[bounds[pos[r]]:bounds[pos[r]+1]] }

	// Reduce-scatter, in recv in place, every walk of both steps sharing
	// one collective operation with one phase per walk. The allgather is
	// gated by the reduce-scatter itself, so this rank's descriptors must
	// stand from before its first send until the last multicast is
	// consumed.
	cc := c.BeginColl()
	me := c.Rank()
	groups := sliceGroups(t, size, slice, cc.FragPayload())
	release := c.PostRecvs(exchangeRecvs(len(groups)))
	defer release()
	cc.SpanBegin("reduce-scatter")
	if lanes == 0 {
		// pos is the identity: one walk per slice among all ranks.
		if err := mpi.ReduceWalks(cc, pos, bounds, phaseSlice, false, recv, dt, op); err != nil {
			return err
		}
	} else {
		segs := t.Segments()
		members := t.Members(t.SegmentOf(me))
		i := slices.Index(members, me)
		region := make([]int, lanes+1) // lane j's region: positions j·S to (j+1)·S
		for j := range region {
			region[j] = bounds[j*segs]
		}
		lane := make([]int, segs)
		for s := range lane {
			lane[s] = t.Members(s)[i]
		}
		if err := mpi.ReduceWalks(cc, members, region, phaseSlice, false, recv, dt, op); err != nil {
			return err
		}
		if err := mpi.ReduceWalks(cc, lane, bounds[i*segs:(i+1)*segs+1], phaseSlice+lanes, false, recv, dt, op); err != nil {
			return err
		}
	}
	cc.SpanEnd("reduce-scatter")

	if len(send) == 0 {
		return nil // nothing was reduced, so nothing goes on the wire
	}
	return gatherSlices(cc, groups, slice)
}

// sliceGroups returns who multicasts which reduced slices in the
// chunked allreduce's allgather: the first rank of group k multicasts
// the slices of every rank in group k, in group order, on the
// allgather's k-th slot. t is the usable topology, or nil, which means
// one group per rank. Where the largest segment's slices fit one
// fragment payload of frag bytes, the groups are the segments and their
// leaders multicast — S one-frame multicasts, so a rank handles S
// receives rather than N-1. Otherwise every rank is its own group and
// multicasts its own slice, N multicasts in rank order: a leader would
// pay a store-and-forward hop on multi-frame slices. The groups depend
// only on t and the slice bounds, so every rank computes the same ones.
func sliceGroups(t *topo.Map, size int, slice func(r int) []byte, frag int) [][]int {
	if t != nil {
		largest := 0
		for s := 0; s < t.Segments(); s++ {
			largest = max(largest, groupBytes(t.Members(s), slice))
		}
		if largest <= frag {
			groups := make([][]int, t.Segments())
			for s := range groups {
				groups[s] = t.Members(s)
			}
			return groups
		}
	}
	groups := make([][]int, size)
	for r := range groups {
		groups[r] = []int{r}
	}
	return groups
}

// gatherSlices is the chunked allreduce's allgather, over the groups of
// sliceGroups. It sends no scouts and no release: leaving the
// reduce-scatter is itself the evidence that every rank has entered and
// posted its descriptors (AllreduceMcastChunked).
// Each group's members first send their slices to its first rank over
// cc — segment-local unicasts, none where a rank is its own group. Then
// exchange gives each group one slot, at which its first rank multicasts
// the group's slices. Empty slices are never sent, and a group whose
// slices are all empty multicasts nothing.
func gatherSlices(cc mpi.CollCtx, groups [][]int, slice func(r int) []byte) error {
	me := cc.Comm().Rank()
	mine := groups[slices.IndexFunc(groups, func(g []int) bool { return slices.Contains(g, me) })]
	if mine[0] != me {
		if s := slice(me); len(s) > 0 {
			cc.SpanBegin("slice-combine")
			err := cc.Send(mine[0], phaseChunk, s, transport.ClassData, false)
			cc.SpanEnd("slice-combine")
			if err != nil {
				return err
			}
		}
	} else if len(mine) > 1 {
		expect := 0
		for _, r := range mine[1:] {
			if len(slice(r)) > 0 {
				expect++
			}
		}
		cc.SpanBegin("slice-combine")
		gate := me
		for range expect {
			m, err := cc.Recv(mpi.AnySource, phaseChunk)
			if err != nil {
				cc.SpanEnd("slice-combine")
				return err
			}
			r := cc.SrcRank(m)
			if !slices.Contains(mine[1:], r) || len(m.Payload) != len(slice(r)) {
				cc.SpanEnd("slice-combine")
				return fmt.Errorf("core: allreduce slice of %d bytes from %d, want one from a member of %v", len(m.Payload), r, mine)
			}
			copy(slice(r), m.Payload)
			gate = r
		}
		cc.SpanEndGated("slice-combine", gate)
	}
	senders := make([]int, len(groups))
	for k, g := range groups {
		senders[k] = -1
		if groupBytes(g, slice) > 0 {
			senders[k] = g[0]
		}
	}
	var sends []send
	if mine[0] == me {
		parts := make([][]byte, len(mine))
		for i, r := range mine {
			parts[i] = slice(r)
		}
		sends = wholeSend(slices.Concat(parts...))()
	}
	return exchange(cc.Comm(), senders, sends, mpi.Whole, func(k int, p []byte) error {
		g := groups[k]
		if want := groupBytes(g, slice); len(p) != want {
			return fmt.Errorf("core: allreduce slices from %d are %d bytes, want %d", g[0], len(p), want)
		}
		off := 0
		for _, r := range g {
			s := slice(r)
			if r != me {
				copy(s, p[off:])
			}
			off += len(s)
		}
		return nil
	})
}

// groupBytes returns the bytes of the slices of the ranks in g together.
func groupBytes(g []int, slice func(r int) []byte) int {
	n := 0
	for _, r := range g {
		n += len(slice(r))
	}
	return n
}

// evenSegments returns the member count F shared by every segment of t,
// or 0 when t is nil or its segments differ in size — the condition for
// the chunked allreduce's two-level reduce-scatter.
func evenSegments(t *topo.Map) int {
	if t == nil {
		return 0
	}
	f := len(t.Members(0))
	for s := 1; s < t.Segments(); s++ {
		if len(t.Members(s)) != f {
			return 0
		}
	}
	return f
}

// scatterWith is a single sliced round of the engine: the root
// multicasts each rank's slice to that rank's private slice group, so a
// receiver's NIC delivers exactly its own M bytes.
func scatterWith(c *mpi.Comm, send, recv []byte, root int, opt roundOptions) error {
	size := c.Size()
	n := len(recv)
	if c.Rank() == root && len(send) != n*size {
		return fmt.Errorf("core: scatter send buffer %d bytes, want %d", len(send), n*size)
	}
	if size == 1 {
		copy(recv, send)
		return nil
	}
	me := c.Rank()
	round := roundPlan{
		sender: root,
		class:  transport.ClassData,
		bytes:  n,
		sends:  sliceSends(send, size, root),
		scope:  mpi.Slice,
		consume: func(p []byte) error {
			if len(p) != n {
				return fmt.Errorf("core: scatter slice %d bytes, want %d", len(p), n)
			}
			copy(recv, p)
			return nil
		},
	}
	if err := runRounds(c, []roundPlan{round}, opt); err != nil {
		return err
	}
	if me == root {
		copy(recv, send[root*n:(root+1)*n])
	}
	return nil
}

// gatherWith collects equal-sized chunks to root, gated by scouts and a
// multicast release so senders cannot overrun the root: the release
// proves the root has entered the gather, so a chunk cannot land in an
// unbounded unexpected queue. Under repair the release is a multicast
// that can be lost in flight like any other; the chunk a rank sends
// after observing it doubles as its confirmation.
func gatherWith(c *mpi.Comm, send, recv []byte, root int, opt roundOptions) error {
	size := c.Size()
	n := len(send)
	if c.Rank() == root && len(recv) != n*size {
		return fmt.Errorf("core: gather recv buffer %d bytes, want %d", len(recv), n*size)
	}
	if size == 1 {
		copy(recv, send)
		return nil
	}
	cc := c.BeginColl()
	if err := opt.gather(cc, root); err != nil {
		return err
	}
	if c.Rank() != root {
		if _, err := awaitMulticast(cc, root, mpi.Whole, 0, opt.repair); err != nil {
			return err
		}
		return cc.Send(root, phaseChunk, send, transport.ClassData, false)
	}
	copy(recv[root*n:], send)
	return collectChunks(cc, mpi.Whole, size-1, n, func(r int, p []byte) { copy(recv[r*n:], p) })
}

// collectChunks is the collecting side of every release-gated gather —
// the flat gather's root, a segment leader of the two-level combine:
// multicast the (empty) release to scope, proving to its listeners that
// this rank's receives are posted so their chunk sends cannot overrun
// it, then place one n-byte chunk from each of expect ranks. Listeners
// that await the release under repair may NACK it: a request is answered
// with the release's own fragments under its original id, and a rank's
// chunk doubles as its confirmation, so no separate acknowledgment
// frames exist. Traffic of the operation's other phases (an early
// aggregate scout reaching the root while it still collects its own
// segment) stays queued for its own receive.
func collectChunks(cc mpi.CollCtx, scope mpi.Scope, expect, n int, place func(r int, p []byte)) error {
	if err := cc.Multicast(scope, nil, transport.ClassControl); err != nil {
		return err
	}
	relID := cc.LastMulticastID()
	got := make(map[int]bool, expect)
	for len(got) < expect {
		m, err := cc.RecvPhases(phaseNack, phaseChunk)
		if err != nil {
			return err
		}
		r := cc.SrcRank(m)
		if got[r] {
			continue // a NACK that raced its own repair; the chunk is here
		}
		if m.Class == transport.ClassNack {
			if err := cc.MulticastRepair(scope, nil, transport.ClassControl, relID, repairFrags(m.Payload, relID)); err != nil {
				return err
			}
			continue
		}
		if len(m.Payload) != n {
			return fmt.Errorf("core: chunk from %d is %d bytes, want %d", r, len(m.Payload), n)
		}
		place(r, m.Payload)
		got[r] = true
	}
	return nil
}
