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
//	                 it is the same burst between two barriers: the
//	                 handshake's s scouts + 1 release, the same data
//	                 frames, then the confirmation's s scouts + 1
//	                 release + s acks into rank 0 (and one confirmation
//	                 per further window, which is also its drain
//	                 barrier), where a round per rank cost N(N-1)
//	                 scouts + N(N-1) acks. Scouts are empty 56-byte
//	                 frames, so once M exceeds one frame the data saving
//	                 dominates on a shared medium.
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
//	                 N((F-1) + log2 S) on S segments of F members each
//	                 where S is a power of two (the lane step halves,
//	                 mpi.ReduceHalving; N((F-1) + (S-1)) elsewhere) —
//	                 and gathers the reduced slices with no scouts (the
//	                 reduce-scatter proves entry), past N=256 only the
//	                 exchange's drain barriers.
//	scatter:         package baseline's linear scatter, (N-1)·ceil(M/T)
//	                 data frames and no scouts, except on shared uplinks
//	                 from 64 ranks with chunks past one frame (plan).
//	                 There s scouts + the same data frames: the root
//	                 multicasts each rank's slice to that rank's
//	                 private slice group, so a receiver's NIC
//	                 delivers exactly its own M bytes — the
//	                 pairwise-unicast byte count — while the send stays on
//	                 the connectionless bypass (no TCP penalty, no kernel
//	                 acks) and stays gated. A slice multicast costs a
//	                 receiver the frames a unicast does, so only the
//	                 bypass's saving can pay for the scouts, and it does
//	                 only there.
//	gather:          package baseline's linear gather, (N-1)·ceil(M/T)
//	                 chunk frames and nothing else, while the root's
//	                 receive ring can absorb the chunks of two gathers
//	                 unposted (plan: N ≤ 128). Beyond, s scouts + 1
//	                 multicast release + the same chunk frames. The
//	                 data has to converge on the root either way, so no
//	                 frame is saved; the release gates the senders until
//	                 the root has entered the gather, which bounds the
//	                 root's unexpected-message queue and prevents the
//	                 fast-senders-overrun-one-receiver failure mode of
//	                 experiment A4.
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
//	                 is the same burst between two barriers, as the
//	                 allgather: 2s scouts + 2 releases + s acks beside
//	                 the same data frames, where N sliced scatter rounds
//	                 cost N(N-1) scouts + N(N-1) acks.
//
// Each round and each slot of a burst opens its own collective operation
// (BeginColl), so the per-operation sequence number keeps back-to-back
// multicasts of one collective apart — the same safe-program ordering
// argument as §4. The rounds run on the shared engine in rounds.go, and
// under the NACK repair protocol (resilient.go) every multicast — a
// round's, or a burst's slot — survives in-flight fragment loss.

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/mpi"
	"repro/internal/topo"
	"repro/internal/transport"
)

// allgatherWith gathers every rank's chunk to every rank in one burst:
// after the handshake every rank multicasts its chunk (exchange), and
// under repair every rank asks for what it lost and answers for its own.
func allgatherWith(c *mpi.Comm, send, recv []byte, opt roundOptions) error {
	size := c.Size()
	n := len(send)
	copy(recv[c.Rank()*n:], send)
	if size == 1 {
		return nil
	}
	return burst(c, opt, wholeSend(send)(), wholeScope, func(r int, p []byte) error {
		if len(p) != n {
			return fmt.Errorf("core: allgather chunk from %d is %d bytes, want %d", r, len(p), n)
		}
		copy(recv[r*n:(r+1)*n], p)
		return nil
	})
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

// burst is the data path of the allgather and the alltoall (flat and
// two-level): standing descriptors for the foreign multicasts and the
// releases, a handshake that is the barrier's round on the round engine
// over opt's scout gather (N-1 scouts and one release — the paper's
// Barrier), then exchange with one slot per rank. Every per-round gather
// collapses into that one handshake. sends is this rank's send list, and
// scopeOf names the scope each rank receives its slots on. Under repair
// the same steps run as repairedExchange.
func burst(c *mpi.Comm, opt roundOptions, sends []send, scopeOf func(rank int) mpi.Scope, consume func(r int, p []byte) error) error {
	release := c.PostRecvs(exchangeRecvs(c.Size()))
	defer release()
	senders := rankOrder(c.Size())
	if opt.repair {
		return repairedExchange(c, opt.gather, senders, sends, scopeOf, consume)
	}
	if err := runRound(c, barrierRound(), opt); err != nil {
		return err
	}
	return exchange(c, senders, sends, scopeOf(c.Rank()), consume)
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
	for lo, window := range windows(senders) {
		if lo > 0 {
			if err := runRound(c, barrierRound(), roundOptions{gather: gatherScoutsBinary}); err != nil {
				return err
			}
		}
		if err := exchangeWindow(c, window, sends, scope, func(k int, p []byte) error { return consume(lo+k, p) }); err != nil {
			return err
		}
	}
	return nil
}

// windows yields exchange's windows of burstRecvBudget+1 slots, each
// with the index of its first slot.
func windows(senders []int) iter.Seq2[int, []int] {
	return func(yield func(int, []int) bool) {
		for lo := 0; lo < len(senders); lo += burstRecvBudget + 1 {
			if !yield(lo, senders[lo:min(lo+burstRecvBudget+1, len(senders))]) {
				return
			}
		}
	}
}

// repairedExchange is burst under NACK repair. The handshake is the
// barrier's scouts toward rank 0 and its release, repaired, but not
// acknowledged: rank 0 answers requests for the release from the first
// window's receive loop, whose confirmation proves that every rank had
// it, so no rank waits for acknowledgments before it multicasts. Then
// each window of exchange's slots runs as repairedWindow and ends in its
// own confirmation, a repaired barrier, which is also what the next
// window waits behind. The handshake spans "round-gather" and the
// windows "round-data", the names of the repaired multi-sender schedule.
func repairedExchange(c *mpi.Comm, gather func(cc mpi.CollCtx, root int) error, senders []int, sends []send, scopeOf func(rank int) mpi.Scope, consume func(k int, p []byte) error) error {
	gate := c.BeginColl()
	gate.SpanBegin("round-gather")
	err := gather(gate, 0)
	var gateSent []send // rank 0's release, which it repairs on request
	if err == nil && c.Rank() == 0 {
		rd := barrierRound()
		gateSent, err = transmitRound(gate, &rd)
	} else if err == nil {
		_, err = awaitMulticast(gate, 0, mpi.Whole, 0, true)
	}
	gate.SpanEnd("round-gather")
	if err != nil {
		return err
	}
	for lo, window := range windows(senders) {
		if err := repairedWindow(c, gate, gateSent, window, sends, scopeOf, func(k int, p []byte) error { return consume(lo+k, p) }); err != nil {
			return err
		}
		gateSent = nil // the window's confirmation retired the handshake
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

// repairedWindow runs one window of exchange's slots under NACK repair,
// and ends it in a confirmation. It opens one operation per slot, then
// one for the confirmation, and fires this rank's sends when
// exchangeWindow would: first, or at its slot on one collision domain.
// Then one receive loop (mpi.CollCtx.RecvSpan over the window's
// operations) runs until the confirmation's release arrives. It:
//
//   - consumes the other slots' multicasts in whatever order they
//     complete, asking each sender for what it lost by a repairClock's
//     evidence rules. Every arrival of the exchange, of any slot, is
//     evidence that the burst is still arriving — a slot's first fragment
//     may queue behind every other slot's data at this rank's port — so
//     it moves the start of every awaited slot's silence (heard);
//   - answers the repair requests for this rank's own sends from their
//     saved message ids, until the release arrives: a rank that has what
//     it needs keeps serving a rank that does not, so two ranks that each
//     lost the other's slot cannot deadlock. Rank 0 also answers requests
//     for gateSent, the handshake's release, sent in the operation gate;
//   - runs the confirmation, the barrier's round under repair: once this
//     rank holds every slot and its scout-tree children (scoutTree toward
//     rank 0) have scouted, it scouts to its parent. Rank 0 then
//     multicasts the release, which proves that every rank holds every
//     slot, and answers requests for it until every other rank has
//     acknowledged it; every other rank awaits the release by the same
//     evidence rules, then acknowledges it.
//
// So the window costs N-1 scouts, one release and N-1 acks beyond its
// data, where a round per sender cost N(N-1) scouts and N(N-1) acks.
// Every sender transmits as many bytes as this rank (the allgather's
// chunk, the alltoall's N-1 slices), which budgets a receiver's silence
// before it asks for a slot of which nothing arrived.
func repairedWindow(c *mpi.Comm, gate mpi.CollCtx, gateSent []send, senders []int, sends []send, scopeOf func(rank int) mpi.Scope, consume func(k int, p []byte) error) error {
	me := c.Rank()
	// ops[0] is the handshake while its release may still be asked for,
	// then come the slots, then the confirmation.
	var ops []mpi.CollCtx
	if gateSent != nil {
		ops = append(ops, gate)
	}
	base := len(ops)
	for range len(senders) + 1 {
		ops = append(ops, c.BeginColl())
	}
	slot := ops[base : base+len(senders)]
	conf := ops[len(ops)-1]
	slot[0].SpanBegin("round-data")
	defer slot[0].SpanEnd("round-data")

	// Every send of a burst carries as many bytes (the allgather's
	// chunk, the alltoall's slices), and every sender sends as many.
	msg, total := 0, 0
	for _, s := range sends {
		msg = len(s.payload)
		total += msg
	}
	inTurn := oneCollisionDomain(c)
	// clocks[k] is slot k's while it is awaited; the last is the
	// release's, once this rank has scouted.
	clocks := make([]*repairClock, len(senders)+1)
	var slotSilence int64 // how long a slot may stay silent
	left := 0
	for k, r := range senders {
		if r < 0 || r == me {
			continue
		}
		if inTurn {
			// The sender fires only once it holds every earlier slot,
			// which may take it a repair of its own, and then sends what
			// this rank does not hear before what it does.
			clocks[k] = newRepairClock(slot[k], r, total)
			clocks[k].extend(heardQuiet)
		} else {
			clocks[k] = newRepairClock(slot[k], r, msg)
		}
		slotSilence = clocks[k].silence
		left++
	}
	mine := slices.Index(senders, me)
	var sent []send
	fired := mine < 0
	fire := func() (err error) {
		rd := roundPlan{class: transport.ClassData, sends: func() []send { return slices.Clone(sends) }}
		sent, err = transmitRound(slot[mine], &rd)
		fired = true
		return err
	}
	if !fired && !inTurn {
		if err := fire(); err != nil {
			return err
		}
	}
	parent, children := scoutTree(me, 0, c.Size())
	scouts, scouted := 0, false
	// heard is the exchange's latest arrival. Without evidence of loss it
	// stops moving at this rank's first request: that request goes out
	// only once the exchange has stopped arriving, and what arrives after
	// it is repair traffic, which no other message queues behind. The
	// exchange's pace at this rank is its fragments since start, whole
	// slots counted at frags each.
	heard, asked := c.Now(), false
	start, slots, frags := heard, left, 1
	if fp := conf.FragPayload(); fp > 0 && msg > fp {
		frags = (msg + fp - 1) / fp
	}
	nacked := false // this rank was asked for a repair in the window
	for {
		if !fired && !slices.ContainsFunc(clocks[:mine], func(rc *repairClock) bool { return rc != nil }) {
			if err := fire(); err != nil {
				return err
			}
		}
		if !scouted && fired && left == 0 && scouts == len(children) {
			scouted = true
			if parent < 0 {
				rd := barrierRound()
				relSent, err := transmitRound(conf, &rd)
				if err != nil {
					return err
				}
				return serveRepairs(conf, &rd, relSent, nacked)
			}
			if err := conf.Send(parent, phaseScout, nil, transport.ClassScout, false); err != nil {
				return err
			}
			// The slowest rank may still be waiting out a silent slot
			// before the release can go out.
			clocks[len(senders)] = newRepairClock(conf, 0, 0)
			clocks[len(senders)].extend(slotSilence)
		}

		// The next request due. Once this rank has seen loss, a partial
		// slot is asked for when the exchange has been quiet for four of
		// its mean inter-arrival gaps here (at least repairProbe/8), not
		// heardQuiet: the burst's own pace says it has stopped arriving.
		// A request may then go out while other slots still arrive, so
		// their arrivals go on moving heard.
		evident := nacked || lossEvident(conf)
		got := (slots - left) * frags
		for _, rc := range clocks {
			if rc != nil {
				rc.look(conf)
				if rc.partial {
					got += rc.seen.Got
					if !asked || evident {
						heard = max(heard, rc.seen.Last)
					}
				}
			}
		}
		quiet := int64(heardQuiet)
		if evident && got > 0 {
			quiet = max(4*(heard-start)/int64(got), repairProbe/8)
		}
		due, at := int64(0), -1
		for k, rc := range clocks {
			if rc == nil || rc.complete() {
				continue // a complete message is on its way up
			}
			rc.heard(heard, quiet)
			if d := rc.due(); at < 0 || d < due {
				due, at = d, k
			}
		}
		now := c.Now()
		timeout := int64(-1) // nothing to ask for: wait as any receive does
		if at >= 0 {
			if now >= due {
				if err := clocks[at].ask(ops[base+at], now); err != nil {
					return err
				}
				asked = true
				continue
			}
			timeout = min(repairProbe, due-now)
		}

		m, op, ok, err := ops[0].RecvSpan(len(ops), timeout)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		k := op - base // the slot, len(senders) for the confirmation
		nacked = nacked || m.Class == transport.ClassNack
		switch {
		case m.Kind == transport.Mcast && k >= 0 && k < len(senders):
			if !asked || evident {
				heard = c.Now()
			}
			if clocks[k] == nil {
				continue // a repair of a slot this rank already holds
			}
			clocks[k] = nil
			left--
			if err := consume(k, m.Payload); err != nil {
				return err
			}
		case m.Kind == transport.Mcast && k == len(senders):
			// The release: every rank holds every slot.
			return conf.Send(0, phaseAck, nil, transport.ClassAck, false)
		case m.Class == transport.ClassNack && k == mine && fired:
			r := ops[op].SrcRank(m)
			if err := repairSend(ops[op], sent, scopeOf(r), transport.ClassData, m.Payload, r); err != nil {
				return err
			}
		case m.Class == transport.ClassNack && k < 0:
			r := gate.SrcRank(m)
			if err := repairSend(gate, gateSent, mpi.Whole, transport.ClassControl, m.Payload, r); err != nil {
				return err
			}
		case m.Class == transport.ClassScout && k == len(senders):
			scouts++
		}
		// Anything else asked too early — for this rank's slot before it
		// fired, or for the release before it went out — and what it asks
		// for is on its way.
	}
}

// alltoallWith runs the personalized exchange as one burst: after the
// handshake every rank multicasts each destination slice of its send
// buffer to that rank's slice group, in ring order (ringSliceSends), and
// consumes the slice each other rank addressed to it — under repair
// asking for what it lost and answering for its own slices. The wire
// carries the same N(N-1)·ceil(M/T) targeted data frames as the pairwise
// baseline, but over the connectionless bypass (no TCP penalty, no
// kernel acks), with every receiver delivered only its own (N-1)·M
// bytes, and every send gated on evidence that its receivers have
// posted, so no set of fast senders can overrun one receiver (the A4
// failure mode this collective stresses hardest).
func alltoallWith(c *mpi.Comm, send, recv []byte, opt roundOptions) error {
	size := c.Size()
	n := len(send) / size
	me := c.Rank()
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	if size == 1 {
		return nil
	}
	// On a switch the ring starts at me+1. On one collision domain, where
	// the ranks take turns, it starts at me+2: the next rank's slice goes
	// last, so the owner of the next slot starts only after this rank's
	// last frame.
	after := me
	if oneCollisionDomain(c) {
		after = (me + 1) % size
	}
	return burst(c, opt, ringSliceSends(after, me, size, send), mpi.Slice, func(r int, p []byte) error {
		if len(p) != n {
			return fmt.Errorf("core: alltoall slice from %d is %d bytes, want %d", r, len(p), n)
		}
		copy(recv[r*n:(r+1)*n], p)
		return nil
	})
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
	bounds := make([]int, size+1)
	for s := range bounds {
		bounds[s] = extent * (s*(elems/size) + min(s, elems%size))
	}
	return bounds
}

// AllreduceMcastChunked is the Rabenseifner-style chunked composition:
// a reduce-scatter built from per-slice binomial walks (mpi.ReduceWalks,
// the walk every reduction runs) or recursive halving
// (mpi.ReduceHalving), after which each rank holds one fully reduced
// slice, followed by an allgather that multicasts each reduced slice
// exactly once (gatherSlices, or gatherLanes, as plan picks). Slices
// split the buffer in whole elements, which Comm.Allreduce checks at
// every rank before any message moves.
//
// The reduce-scatter runs in two levels (plan) where usableTopo finds S
// segments of F members each — Karonis's multilevel and Träff's lane
// decomposition of the reduce-scatter. Slices are laid out lane-major:
// the rank with member index i in segment s owns the slice at position
// i·S + s, so the S slices of lane i (the ranks with member index i) are
// one contiguous region. A segment step of F walks among the rank's own
// segment reduces lane j's region toward member j (F-1 messages per
// rank, all segment-local); a lane step among the rank's lane reduces
// each of the lane's slices toward its owner across the uplinks. Where S
// is a power of two the lane step is a recursive halving, log2 S messages
// per rank; elsewhere it is S walks, S-1 messages per rank. At N=256,
// F=4 that is 3 + 6 = 9 messages per rank in place of 255. Elsewhere —
// no usable topology, or segments of unequal size — every rank owns the
// slice at its own rank and one step of N walks among all ranks reduces
// it (N-1 messages per rank). The segment step keeps its walks: halving
// there read faster at 100 B but slower from 20,000 B (EXPERIMENTS.md).
//
// The allgather sends no scouts and no release: the reduce-scatter
// already proves what scouts would, on any fabric. Every rank posts its
// standing descriptors (Comm.PostRecvs) on entry, before its first send.
// A rank multicasts only a non-empty slice or region, and its own slice
// is non-empty whenever it does. On the flat step the owner of a
// non-empty slice is the root of that slice's walk over all ranks, so
// every rank has sent into it. On the two-level path it has heard from
// all S lane peers: as the root of its lane walk, or through the
// halving, where partners share one range at every step, so the range
// that holds a non-empty slice is never empty and the owner has heard,
// transitively, from every lane peer. Each lane peer sent only after its
// segment step returned, where it was the root of a walk over its whole
// segment. A segment leader multicasts its members' slices after its own
// (gatherSlices), and a lane's member in segment 0 multicasts lane region
// i only when its own slice, the region's first, is non-empty
// (gatherLanes). Either way a rank multicasts only after every rank has
// posted, so no multicast of the allgather can meet an unposted receiver,
// and its later windows (exchange) wait behind the barrier as every
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
// segment then lane on the two-level path, and in halving order where
// the lane step halves, which is not the walks' order — so op should be
// commutative and associative (every built-in mpi.Op is; floating-point
// sums may round differently from rank order, and differently again
// from the walks).
func AllreduceMcastChunked(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op) error {
	return allreduceChunked(c, send, recv, dt, op, plan)
}

// allreduceChunked is AllreduceMcastChunked with the schedules pick
// returns for the reduce-scatter and the gather.
func allreduceChunked(c *mpi.Comm, send, recv []byte, dt mpi.Datatype, op mpi.Op, pick planner) error {
	size := c.Size()
	copy(recv, send)
	if size == 1 {
		return nil
	}
	bounds := sliceBounds(len(send), dt.Size(), size)

	// Reduce-scatter, in recv in place, every walk and halving step of
	// both levels sharing one collective operation with a phase each. The
	// allgather is gated by the reduce-scatter itself, so this rank's
	// descriptors must stand from before its first send until the last
	// multicast is consumed.
	cc := c.BeginColl()
	me := c.Rank()
	in := planIn{t: usableTopo(c), size: size, frag: cc.FragPayload(), bounds: bounds}
	t, step := in.t, pick(kind{}, opReduceScatter, in)
	pos := slicePos(t, size, step)
	slice := func(r int) []byte { return recv[bounds[pos[r]]:bounds[pos[r]+1]] }
	var lane, heads []int // this rank's lane in segment order; the lanes' members in segment 0
	var groups [][]int    // gatherSlices' groups: the segments, or one rank each
	switch pick(kind{}, opSliceGather, in) {
	case laneGather:
		heads = t.Members(0)
	case leadersGather:
		for s := range t.Segments() {
			groups = append(groups, t.Members(s))
		}
	default:
		for r := range size {
			groups = append(groups, []int{r})
		}
	}
	release := c.PostRecvs(exchangeRecvs(len(heads) + len(groups)))
	defer release()
	cc.SpanBegin("reduce-scatter")
	if step == rankWalks {
		// pos is the identity: one walk per slice among all ranks.
		if err := mpi.ReduceWalks(cc, pos, bounds, phaseSlice, false, recv, dt, op); err != nil {
			return err
		}
	} else {
		segs := t.Segments()
		members := t.Members(t.SegmentOf(me))
		i := slices.Index(members, me)
		region := make([]int, len(members)+1) // lane j's region: positions j·S to (j+1)·S
		for j := range region {
			region[j] = bounds[j*segs]
		}
		lane = make([]int, segs)
		for s := range lane {
			lane[s] = t.Members(s)[i]
		}
		if err := mpi.ReduceWalks(cc, members, region, phaseSlice, false, recv, dt, op); err != nil {
			return err
		}
		reduceLane := mpi.ReduceWalks
		if step == laneHalving {
			reduceLane = mpi.ReduceHalving
		}
		if err := reduceLane(cc, lane, bounds[i*segs:(i+1)*segs+1], phaseSlice+len(members), false, recv, dt, op); err != nil {
			return err
		}
	}
	cc.SpanEnd("reduce-scatter")

	if len(send) == 0 {
		return nil // nothing was reduced, so nothing goes on the wire
	}
	if heads != nil {
		return gatherLanes(cc, lane, heads, bounds, recv)
	}
	return gatherSlices(cc, groups, slice)
}

// slicePos returns the position of the slice each rank reduces and
// multicasts in the chunked allreduce whose reduce-scatter runs as step:
// lane-major in two levels (the rank with member index i in segment s
// owns position i·S + s), rank order where it walks over all ranks.
func slicePos(t *topo.Map, size int, step schedule) []int {
	pos := rankOrder(size)
	if step != rankWalks {
		for r := range pos {
			seg := t.SegmentOf(r)
			pos[r] = slices.Index(t.Members(seg), r)*t.Segments() + seg
		}
	}
	return pos
}

// rankOrder returns the ranks 0 … size-1 in order.
func rankOrder(size int) []int {
	ranks := make([]int, size)
	for r := range ranks {
		ranks[r] = r
	}
	return ranks
}

// gatherLanes is the chunked allreduce's allgather by lanes (plan).
// lane is this rank's lane in segment order, heads the lanes' members in
// segment 0 in lane order, and lane k's reduced slices are
// buf[bounds[k·S]:bounds[(k+1)·S]], the slice of the lane's member in
// segment s at position s. First each lane gathers its slices toward its
// head, up the Binomial tree over segment order: the subtree of position
// s covers positions s to s+lowbit(s)-1, one contiguous block, which the
// rank at s sends its parent once its children's blocks are in (log2 S
// steps; an empty block is neither sent nor awaited). Then exchange gives
// each head one slot, at which it multicasts its lane's region: a rank
// handles F multicasts where gatherSlices' leaders cost it S.
//
// Like gatherSlices it sends no scouts and no release. A head multicasts
// only a non-empty region, so its own slice, the region's first and
// largest, is non-empty, and by mpi.ReduceHalving's evidence it has
// heard from every rank of its lane, each of which had left its segment
// step (AllreduceMcastChunked).
func gatherLanes(cc mpi.CollCtx, lane, heads, bounds []int, buf []byte) error {
	segs := len(lane)
	at := slices.Index(lane, cc.Comm().Rank())
	i := slices.Index(heads, lane[0])
	base := i * segs
	block := func(s int) []byte { // the slices of the subtree at position s > 0
		return buf[bounds[base+s]:bounds[base+min(s+s&-s, segs)]]
	}
	parent, kids := mpi.Binomial(at, segs)
	cc.SpanBegin("slice-combine")
	gate := cc.Comm().Rank()
	for ch := range kids.All {
		b := block(ch)
		if len(b) == 0 {
			continue
		}
		m, err := cc.Recv(lane[ch], phaseChunk)
		if err == nil && len(m.Payload) != len(b) {
			err = fmt.Errorf("core: allreduce lane block of %d bytes from %d, want %d", len(m.Payload), lane[ch], len(b))
		}
		if err != nil {
			cc.SpanEnd("slice-combine")
			return err
		}
		copy(b, m.Payload)
		gate = lane[ch]
	}
	var err error
	if b := block(at); parent >= 0 && len(b) > 0 {
		err = cc.Send(lane[parent], phaseChunk, b, transport.ClassData, false)
	}
	cc.SpanEndGated("slice-combine", gate)
	if err != nil {
		return err
	}
	region := func(k int) []byte { return buf[bounds[k*segs]:bounds[(k+1)*segs]] }
	senders := make([]int, len(heads))
	for k, h := range heads {
		senders[k] = -1
		if len(region(k)) > 0 {
			senders[k] = h
		}
	}
	return exchange(cc.Comm(), senders, wholeSend(region(i))(), mpi.Whole, func(k int, p []byte) error {
		if len(p) != len(region(k)) {
			return fmt.Errorf("core: allreduce lane region from %d is %d bytes, want %d", heads[k], len(p), len(region(k)))
		}
		copy(region(k), p)
		return nil
	})
}

// gatherSlices is the chunked allreduce's allgather over groups: the
// segments, whose leaders multicast their members' slices, or one group
// per rank (plan). It sends no scouts and no release: leaving the
// reduce-scatter is itself the evidence that every rank has entered and
// posted its descriptors (AllreduceMcastChunked). A group's first rank
// multicasts only when the group's slices are not all empty, so its own
// slice, the group's first and largest (sliceBounds front-loads the
// remainder in position order, and a leader's slice comes first in its
// segment), is non-empty: it heard from every rank, as the root of its
// walk or through the halving's shared ranges.
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

// scatterWith is a single round of the engine. Flat (t nil) it is a
// sliced round (plan's slicedRound): the root multicasts each rank's
// slice to that rank's private slice group, so a receiver's NIC
// delivers exactly its own M bytes. Given a topology it is a segment
// round (segmentRound): the root multicasts each segment's super-slice
// — that segment's chunks in member order — to the segment's group, one
// egress transmission per port instead of one per rank, and every
// receiver keeps its own chunk of the block.
func scatterWith(c *mpi.Comm, send, recv []byte, root int, opt roundOptions, t *topo.Map) error {
	size := c.Size()
	n := len(recv)
	me := c.Rank()
	// A receiver hears want bytes and keeps the n at offset at.
	round := roundPlan{sender: root, class: transport.ClassData, bytes: n * (size - 1),
		sends: sliceSends(send, size, root), scope: mpi.Slice}
	want, at := n, 0
	if t != nil {
		ms := t.Members(t.SegmentOf(me))
		want, at = n*len(ms), n*slices.Index(ms, me)
		round.bytes, round.sends, round.scope = n*size, segSends(t, send, n, root, t.Segments()-1), segScope(t)
	}
	round.consume = func(p []byte) error {
		if len(p) != want {
			return fmt.Errorf("core: scatter block %d bytes, want %d", len(p), want)
		}
		copy(recv, p[at:at+n])
		return nil
	}
	if err := runRound(c, round, opt); err != nil {
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
// unbounded unexpected queue. The flat sets run it past the
// point-to-point gather's ring bound (plan's releaseGated). Under
// repair the release is a multicast that can be lost in flight
// like any other: a listener's request is answered with the release's
// own fragments under its original id, and the chunk a rank sends after
// observing it doubles as its confirmation, so no separate
// acknowledgment frames exist.
func gatherWith(c *mpi.Comm, send, recv []byte, root int, opt roundOptions) error {
	size := c.Size()
	n := len(send)
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
	if err := cc.Multicast(mpi.Whole, nil, transport.ClassControl); err != nil {
		return err
	}
	relID := cc.LastMulticastID()
	got := make(map[int]bool, size-1)
	for len(got) < size-1 {
		m, err := cc.RecvPhases(phaseNack, phaseChunk)
		if err != nil {
			return err
		}
		r := cc.SrcRank(m)
		if got[r] {
			continue // a NACK that raced its own repair; the chunk is here
		}
		if m.Class == transport.ClassNack {
			if err := cc.MulticastRepair(mpi.Whole, nil, transport.ClassControl, relID, repairFrags(m.Payload, relID)); err != nil {
				return err
			}
			continue
		}
		if len(m.Payload) != n {
			return fmt.Errorf("core: chunk from %d is %d bytes, want %d", r, len(m.Payload), n)
		}
		copy(recv[r*n:], m.Payload)
		got[r] = true
	}
	return nil
}
