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
//	                 On a hub, under repair and beyond N=256 it runs
//	                 N rounds, each s scouts + ceil(M/T) data = N(N-1)
//	                 scouts + N·ceil(M/T) data frames. Scouts are
//	                 empty 56-byte frames, so once M exceeds one frame
//	                 the data saving dominates on a shared medium.
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
//	                 and gathers the reduced slices with no scouts on
//	                 even segments (the reduce-scatter proves entry),
//	                 in one burst (s scouts + 1 release) on uneven
//	                 ones, N(N-1) scouts elsewhere.
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
//	alltoall:        N scout-gated sliced scatter rounds = N(N-1) scouts
//	                 + N(N-1)·ceil(M/T) data frames — the same targeted
//	                 byte count as the pairwise baseline, each receiver
//	                 delivered only its (N-1)·M bytes, but with the
//	                 release gating of the rounds (no overrun) and no
//	                 per-message TCP penalty or kernel-ack frames.
//
// Each round opens its own collective operation (BeginColl), so the
// per-operation sequence number keeps back-to-back multicasts of one
// collective apart — the same safe-program ordering argument as §4.
// The rounds themselves run on the shared engine in rounds.go, either
// serialized (the paper's composition) or pipelined (round r+1's scout
// gather overlapping round r's data multicast), and optionally under
// the NACK repair protocol (resilient.go) that survives in-flight
// fragment loss.

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/topo"
	"repro/internal/transport"
)

// allgatherWith gathers every rank's chunk to every rank. Lossless and
// within burstFits it is one burst: after the handshake every rank
// multicasts its chunk at once. Otherwise — under repair, beyond the
// receive budget, on one collision domain — it runs N scout-gated rounds
// on the round engine; in round r rank r multicasts its chunk once and
// every other rank receives it.
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
	if !opt.repair && burstFits(c) {
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
// rank: while a rank transmits its own data it is in no receive, so up
// to size-1 foreign multicasts queue in the device's receive ring, which
// must absorb them without overflow — the simulator's default ring holds
// 256 messages, and this leaves one slot to spare. It guards every
// exchange (burstFits): the flat and two-level allgather, the two-level
// alltoall and the chunked allreduce's gather on uneven segments (burst,
// one slot per rank), and its scout-free gather on even ones
// (gatherSlices, one slot per slice group, so at most as many multicasts
// undrained).
const burstRecvBudget = 255

// burstFits reports whether a burst on c is within the budget and not on
// one collision domain. A hub (a topology of one segment) is left out:
// N stations transmitting at once there exhaust CSMA/CD's attempt limit
// and drop frames, which a lossless burst cannot survive.
func burstFits(c *mpi.Comm) bool {
	t := c.Topo()
	return c.Size()-1 <= burstRecvBudget && (t == nil || t.Segments() > 1)
}

// burst is the lossless data path of the allgather (flat and two-level),
// the two-level alltoall and the chunked allreduce's allgather half on
// uneven segments: standing descriptors for size-1 foreign multicasts
// and the release, the multicast barrier over gather's scouts (N-1
// scouts and one release — the paper's Barrier), then exchange with one
// slot per rank. Every per-round gather collapses into that one
// handshake.
func burst(c *mpi.Comm, gather func(cc mpi.CollCtx, root, hot int) error, sends []send, scope mpi.Scope, consume func(r int, p []byte) error) error {
	release := c.PostRecvs(c.Size())
	defer release()
	cc := c.BeginColl()
	if err := barrierOn(cc, gather); err != nil {
		return err
	}
	senders := make([]int, c.Size())
	for r := range senders {
		senders[r] = r
	}
	return exchange(cc, senders, sends, scope, consume)
}

// exchange is the data phase that follows evidence that every rank has
// entered and posted its standing descriptors (burst's barrier, or the
// chunked allreduce's reduce-scatter). senders[k] multicasts at slot k,
// or nobody where it is -1. One context per slot is opened in slot
// order; this rank fires its sends at its own slot, before consuming
// anything, so transmissions overlap fully, then hands consume every
// other sending slot's multicast on scope, in slot order, which keeps
// the multicast staleness watermark monotone. Its spans go on cc.
func exchange(cc mpi.CollCtx, senders []int, sends []send, scope mpi.Scope, consume func(k int, p []byte) error) error {
	c := cc.Comm()
	me := c.Rank()
	ccs := make([]mpi.CollCtx, len(senders))
	for k, r := range senders {
		ccs[k] = c.BeginColl()
		if r != me {
			continue
		}
		cc.SpanBegin("chunk-mcast")
		for _, s := range sends {
			if err := ccs[k].Multicast(s.scope, s.payload, transport.ClassData); err != nil {
				cc.SpanEnd("chunk-mcast")
				return err
			}
		}
		cc.SpanEnd("chunk-mcast")
	}
	cc.SpanBegin("chunk-consume")
	defer cc.SpanEnd("chunk-consume")
	for k, r := range senders {
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

// alltoallWith runs the personalized exchange as N scout-gated sliced
// scatter rounds: in round r rank r multicasts each destination slice of
// its send buffer to that rank's slice group, and every other rank
// receives exactly the slice addressed to it. The wire carries the same
// N(N-1)·ceil(M/T) targeted data frames as the pairwise baseline, but
// over the connectionless bypass (no TCP penalty, no kernel acks), with
// every receiver delivered only its own (N-1)·M bytes, and every round
// release-gated, so no set of fast senders can overrun one receiver (the
// A4 failure mode this collective stresses hardest).
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
	rounds := make([]roundPlan, size)
	for r := range rounds {
		rounds[r] = roundPlan{
			sender: r,
			class:  transport.ClassData,
			bytes:  n,
			sends:  sliceSends(send, size, r),
			scope:  mpi.Slice,
			consume: func(p []byte) error {
				if len(p) != n {
					return fmt.Errorf("core: alltoall round %d slice %d bytes, want %d", r, len(p), n)
				}
				copy(recv[r*n:(r+1)*n], p)
				return nil
			},
		}
	}
	return runRounds(c, rounds, opt)
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
// allgather that multicasts each reduced slice exactly once. Slices
// split the buffer in whole elements, which Comm.Allreduce checks at
// every rank before any message moves.
//
// On S segments of F members each (within the receive budget,
// burstFits) that allgather sends no scouts (gatherSlices): the
// two-level reduce-scatter below already proves what scouts would. A
// rank leaving it with a non-empty slice is the root of its lane walk,
// so all S lane peers contributed; each of them sent only after its
// segment step returned, where it was the root of a walk over its whole
// segment. So every rank has sent, and every rank posts its standing
// descriptors (Comm.PostRecvs) on entry, before its first send: no
// multicast of the allgather can meet an unposted receiver. Where the
// largest segment's slices fit one fragment payload, members hand their
// slices to their segment leader and the S leaders multicast one frame
// each; beyond, a leader's store-and-forward hop costs more than it
// saves, and every rank multicasts its own slice. On uneven segments the
// allgather is a burst — the multicast barrier's N-1 scouts and one
// release, then every rank multicasts its slice; elsewhere it is the
// suite's pipelined scout-gated rounds, N(N-1) scouts. The two gathers
// differ only in their evidence: after it, both run the same exchange,
// one multicast slot per sender in slot order.
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
	// one collective operation with one phase per walk.
	cc := c.BeginColl()
	me := c.Rank()
	// On even segments the allgather runs scout-free, gated by the
	// reduce-scatter itself, so this rank's descriptors must stand from
	// before its first send until the last multicast is consumed.
	var groups [][]int
	if lanes > 0 && len(send) > 0 && burstFits(c) {
		groups = sliceGroups(t, size, slice, cc.FragPayload())
		release := c.PostRecvs(len(groups))
		defer release()
	}
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

	// Allgather: every reduced slice is multicast once — scout-free on
	// even segments, elsewhere in one two-level burst or in pipelined
	// rounds paced for sub-frame slices.
	if len(send) == 0 {
		return nil // nothing was reduced, so nothing goes on the wire
	}
	if groups != nil {
		return gatherSlices(cc, groups, slice)
	}
	place := func(r int, p []byte) error {
		if want := len(slice(r)); len(p) != want {
			return fmt.Errorf("core: allreduce slice %d is %d bytes, want %d", pos[r], len(p), want)
		}
		copy(slice(r), p)
		return nil
	}
	if t != nil && burstFits(c) {
		return burst(c, gatherScoutsBinary, wholeSend(slice(me))(), mpi.Whole, place)
	}
	rounds := make([]roundPlan, 0, size)
	for r := 0; r < size; r++ {
		if len(slice(r)) == 0 {
			continue
		}
		rounds = append(rounds, roundPlan{
			sender:  r,
			class:   transport.ClassData,
			bytes:   len(slice(r)),
			sends:   wholeSend(slice(r)),
			scope:   wholeScope,
			consume: func(p []byte) error { return place(r, p) },
		})
	}
	return runRounds(c, rounds, roundOptions{gather: gatherScoutsBinary, pipeline: true})
}

// sliceGroups returns who multicasts which reduced slices in the
// scout-free allgather of the chunked allreduce: the first rank of
// group k multicasts the slices of every rank in group k, in group
// order, on the allgather's k-th context. Where the largest segment's
// slices fit one fragment payload of frag bytes, the groups are the
// segments and their leaders multicast — S one-frame multicasts, so a
// rank handles S receives rather than N-1. Otherwise every rank is its
// own group and multicasts its own slice, N multicasts in rank order:
// a leader would pay a store-and-forward hop on multi-frame slices. The
// groups depend only on t and the slice bounds, so every rank computes
// the same ones.
func sliceGroups(t *topo.Map, size int, slice func(r int) []byte, frag int) [][]int {
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
	groups := make([][]int, size)
	for r := range groups {
		groups[r] = []int{r}
	}
	return groups
}

// gatherSlices is the chunked allreduce's allgather on even segments,
// over the groups of sliceGroups. It sends no scouts and no release:
// leaving the two-level reduce-scatter is itself the evidence that every
// rank has entered and posted its descriptors (AllreduceMcastChunked).
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
	return exchange(cc, senders, sends, mpi.Whole, func(k int, p []byte) error {
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
func gatherWith(c *mpi.Comm, send, recv []byte, root int, gather func(cc mpi.CollCtx, root, hot int) error, rep bool) error {
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
	if err := gather(cc, root, -1); err != nil {
		return err
	}
	if c.Rank() != root {
		if _, err := awaitMulticast(cc, root, mpi.Whole, 0, rep); err != nil {
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
