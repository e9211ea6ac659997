package core

// The one round engine: every scout-gated multicast of every set is a
// round of it — the paper's broadcast and barrier (one round each: the
// flat and resilient sets', which the two-level sets run too, and the
// sequencer and unsafe broadcasts), the scatter (sliced, or by segment
// in the two-level regime), and the handshake and the drain barriers of
// every lossless exchange. A round has a designated sender; a scout
// gather toward that sender proves every receiver has entered the round,
// then the sender multicasts once and every other rank consumes the
// payload addressed to it. The repaired burst (repairedExchange in suite.go) takes the
// round's parts — its scout gathers, transmitRound, the repair clock and
// serveRepairs — into its own receive loop.
//
// Spans: a round carries the paper's names, "scout-gather" and then
// "data-mcast" ("release" for a ClassControl round).
//
// Schedule: a collective runs at most one round at a time. The
// allgather and alltoall, repaired or not, and the chunked allreduce's
// gather run no sequence of rounds: once their evidence is in, one
// exchange multicasts every sender's data at its own slot (burst and
// exchange in suite.go).
//
// Reliability: the data phase of a round runs in one of two classes:
//
//   - Scout-only (the paper's model): after the gather, the single
//     multicast cannot be lost to an unready receiver, and no
//     acknowledgment traffic exists.
//
//   - NACK repair (reference [10]'s receiver-initiated reliability):
//     receivers watch what arrives, request repairs for
//     multicasts lost in flight (injected fragment loss, overrun) once a
//     message has stopped arriving (awaitMulticast), and confirm receipt
//     so the sender can retire the round. Repairs are
//     fragment-granular: the NACK carries the receiver's missing-fragment
//     list (transport.Reassembler.Missing via the device's
//     transport.Wire) and the sender retransmits only those
//     fragments under the original message id, so repair convergence is
//     O(missing) instead of O(F) — independent of message size. This is
//     what makes the Resilient* variants of the suite survive random
//     fragment loss that the paper's model rules out. Once a rank has
//     seen the network lose frames (lossEvident), repair also acts on
//     that evidence: a control round's sender resends its release to
//     the ranks whose acks the others' prove overdue (serveRepairs), and
//     the repaired burst asks at its own pace (repairedWindow). Without
//     evidence neither rule arms a timer, and a lossless wire carries
//     exactly what it carried before them.
//
// Scope: what a round puts on the wire is a list of sends, each a
// payload and the mpi.Scope it is addressed to, and every receiver names
// the one scope it listens on. A whole-buffer round (allgather, bcast —
// every receiver needs every byte) is one send to mpi.Whole. A sliced
// round (scatter, alltoall) is one send per destination rank to that
// rank's private slice group, so a receiver's NIC accepts only the
// fragments it needs and the per-receiver delivered byte count matches
// the pairwise-unicast exchange while each byte still crosses the wire
// exactly once. A segment round (the two-level scatter and alltoall) is
// one send per fabric segment to that segment's group. The engine never
// asks which of the three a round is: it transmits the list, receives on
// the scope and repairs the send a NACK's source listens on.

import (
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/reliab"
	"repro/internal/transport"
)

// send is one multicast of a round: a payload and where it goes.
type send struct {
	scope   mpi.Scope
	payload []byte
	// id is the device message id the send went out under (set by
	// transmitRound), which a selective repair reuses.
	id uint64
}

// roundPlan describes one scout-gated multicast round.
type roundPlan struct {
	// sender is the communicator rank that multicasts this round.
	sender int
	// class marks the multicast's wire class (data or control).
	class transport.Class
	// bytes is the sum of the round's multicast payloads. Every rank
	// must set it identically (payload sizes are symmetric even where
	// contents are not); a repairing receiver budgets its silence by it,
	// since the sends go out in order and its own may come last.
	bytes int
	// sends lists the round's multicasts in transmit order. It is
	// evaluated on the sender only, once the round's gather has
	// completed (other ranks may pass a closure over state they do not
	// hold), and leaves out any scope nobody but the sender listens on.
	sends func() []send
	// scope names the scope a rank receives this round on: for every
	// rank but the sender, one of the scopes in sends.
	scope func(rank int) mpi.Scope
	// consume is called on every non-sender rank with the payload sent
	// to its scope (after any repair resends).
	consume func(payload []byte) error
}

// wholeScope is the scope of a whole-buffer round at every rank.
func wholeScope(int) mpi.Scope { return mpi.Whole }

// wholeSend is the send list of a whole-buffer round: payload, once, to
// the whole communicator.
func wholeSend(payload []byte) func() []send {
	return func() []send { return []send{{scope: mpi.Whole, payload: payload}} }
}

// sliceSends is the send list of a sliced round (scope: mpi.Slice): buf
// is size equal slices, and every rank's but the sender's goes to that
// rank's slice group, in rank order. The rank count is a parameter
// because the buffer cannot tell it: a zero-byte scatter still
// multicasts size-1 empty slices that the receivers block on.
func sliceSends(buf []byte, size, sender int) func() []send {
	return func() []send {
		n := len(buf) / size
		sends := make([]send, 0, size-1)
		for r := 0; r < size; r++ {
			if r != sender {
				sends = append(sends, send{scope: mpi.Slice(r), payload: buf[r*n : (r+1)*n]})
			}
		}
		return sends
	}
}

// roundOptions selects the scout scheme and the reliability class of a
// round.
type roundOptions struct {
	// gather runs one rank's part of the scout gather toward the round
	// sender (gatherScoutsBinary, gatherScoutsLinear, noGather).
	gather func(cc mpi.CollCtx, root int) error
	// repair runs every data phase under the receiver-initiated NACK
	// protocol so lost fragments are repaired.
	repair bool
}

// runRound executes one round on c: its own collective operation, the
// scout gather toward the round sender inside the "scout-gather" span,
// then the data phase — optionally under NACK repair — inside
// "data-mcast" ("release" for a ClassControl round). The sender's span
// closes plainly (its multicast is the release), a receiver's closes
// gated on the round sender — the edge that lets the critical-path walk
// cross from a waiting rank onto the track of the rank it waited for.
func runRound(c *mpi.Comm, rd roundPlan, opt roundOptions) error {
	if c.Size() == 1 {
		return nil // nobody to move it to
	}
	span := "data-mcast"
	if rd.class == transport.ClassControl {
		span = "release"
	}
	cc := c.BeginColl()
	cc.SpanBegin("scout-gather")
	err := opt.gather(cc, rd.sender)
	cc.SpanEnd("scout-gather")
	if err != nil {
		return err
	}
	cc.SpanBegin(span)
	if c.Rank() != rd.sender {
		err := receiveRound(cc, &rd, opt.repair)
		cc.SpanEndGated(span, rd.sender)
		return err
	}
	sent, err := transmitRound(cc, &rd)
	if err == nil && opt.repair {
		err = serveRepairs(cc, &rd, sent, false)
	}
	cc.SpanEnd(span)
	return err
}

// repairProbe, 2 ms of device clock, is a repairing receiver's one unit
// of time: it looks this often at what its device has
// seen arrive; asks for the rest of a message once it has been quiet for
// four of its own inter-arrival gaps, at least repairProbe/8; asks again
// no sooner than repairProbe later, doubling; and asks for a message of
// which nothing arrived only after 7 repairProbe (more for more than 16
// fragments), then at intervals doubling from 8 repairProbe. When a
// request leaves is decided by arrivals, not by this value: halving it
// makes receivers look, and give up on silence, twice as often —
// measured at a quarter it makes them ask for messages that were merely
// late.
const repairProbe int64 = 2_000_000

// maxRepairs bounds the repair requests per receiver and multicast.
const maxRepairs = 64

// awaitMulticast blocks for this operation's multicast from sender to
// scope. Without rep that is a plain receive. With it, it runs the
// receiver's side of the repair protocol: wait, decide from what the
// device has seen arrive whether the message is still coming, ask the
// sender for what is missing when it is not (a repairClock), give up
// after maxRepairs requests. bytes is the expected payload size (known
// identically at every rank by the collective's contract).
func awaitMulticast(cc mpi.CollCtx, sender int, scope mpi.Scope, bytes int, rep bool) (transport.Message, error) {
	if !rep {
		return cc.RecvMulticast(scope)
	}
	c := cc.Comm()
	rc := newRepairClock(cc, sender, bytes)
	for {
		rc.look(cc)
		if rc.complete() {
			// A message from the sender arrived whole, perhaps while this
			// rank was sending: if it is this one, the receive finds it at
			// once, where asking first would buy a full resend. It may be
			// the sender's next one instead (its slot of a burst, after a
			// lost release), so the receive is bounded and the clock goes
			// on once it expires.
			rc.started = false
			m, ok, err := cc.RecvMulticastTimeout(scope, repairProbe)
			if err != nil || ok {
				return m, err
			}
			continue
		}
		due := rc.due()
		now := c.Now()
		if now < due {
			m, ok, err := cc.RecvMulticastTimeout(scope, min(repairProbe, due-now))
			if err != nil || ok {
				return m, err
			}
			continue
		}
		if err := rc.ask(cc, now); err != nil {
			return transport.Message{}, err
		}
	}
}

// repairClock is a repairing receiver's evidence clock for one multicast:
// from what the device has seen of the message arrive, it says when to
// ask the sender for the rest, on the wire's own clock, and it is silent
// without evidence. Every repairProbe the receiver looks at the device's
// reassembly state for the sender's message (MissingFrom), and it finds
// one of two things.
//
//   - A partial message: some fragments arrived, stamped by the
//     reassembler. The transmission has a pace — the mean gap between the
//     arrivals so far — and a message that has been quiet for four of
//     those gaps (at least repairProbe/8, which also covers a single
//     fragment, whose gap nobody can know) has stopped arriving: what is
//     missing was lost, and the receiver asks for exactly those fragments
//     (transport.EncodeRepairReq) at that moment, not a timer's expiry
//     later. A transmission that is merely long keeps arriving and is
//     never asked about, whatever its length, so repair traffic cannot
//     race data still in flight — the feedback a fixed timer shorter than
//     a multi-fragment round sets off on every waiting receiver at once.
//     A repair is served behind whatever the sender has queued (every
//     other receiver's confirmation, at a host receive cost each), so a
//     second request for the same message waits a full repairProbe after
//     the first, doubling: asking again any sooner buys the same repair
//     twice. A message that interleaves with others (heard) has no pace
//     of its own, and waits heardQuiet after the latest traffic heard —
//     or, once loss has been seen, four of that traffic's own mean gaps
//     (repairedWindow).
//
//   - Nothing at all. Usually the message has not been sent yet — the
//     sender is still finishing an earlier phase or serving its repairs,
//     or its data queues behind other traffic — rather than every
//     fragment having been lost, and an empty request asks for a FULL
//     resend, which costs an F-fragment message F frames. So the receiver
//     stays silent for as long as a timer doubling from repairProbe would
//     take to expire 3 + F/16 times (seven probe periods for anything up
//     to 16 fragments; losing every fragment of a larger message is
//     p^F-unlikely), then sends the empty request, and again after
//     intervals that keep doubling: growing any slower, the requests of
//     all receivers of a late message pile up into a storm of full
//     resends. That silence starts when the receiver begins to wait, or
//     later where it has heard other traffic the message may queue
//     behind (heard).
//
// Either request first asks the failure detector (when armed) whether the
// quiet is a dead rank: a receiver asking a dead sender forever would
// otherwise only surface the give-up error.
type repairClock struct {
	sender int
	// What the device held of the message at the last look: a partial
	// message's id, missing fragments and arrivals.
	msgID   uint64
	missing []int
	seen    transport.Arrivals
	partial bool
	// started records that some of the message arrived: once the device
	// holds none of it again, it is complete.
	started bool
	// since is the start of the current silence: when the receiver began
	// to wait or last sent an empty request, or the partial message's
	// latest arrival.
	since int64
	// silence is how long nothing at all must arrive before the first
	// empty request.
	silence             int64
	emptyDue, emptyWait int64 // the next empty request, and the one after it
	askDue, askWait     int64 // the earliest a named request may follow the last
	requests            int
	// heardAt is when the receiver last heard traffic arrive that the
	// message may be queued behind (heard); 0 where there is none. quiet
	// is how long that traffic must then have been silent before a
	// partial message is asked for.
	heardAt, quiet int64
}

// newRepairClock starts the clock of a receiver that begins, now, to wait
// for sender's multicast of bytes bytes.
func newRepairClock(cc mpi.CollCtx, sender, bytes int) *repairClock {
	// A device with a wire reports its fragment payload; the fallback
	// covers the in-process device, which has none and loses nothing
	// (over-counting fragments only lengthens the silence before an
	// empty request, the safe direction).
	fragPayload := cc.FragPayload()
	if fragPayload <= 0 {
		fragPayload = 512
	}
	silent := 3
	if frags := bytes/fragPayload + 1; frags > 16 {
		silent += frags / 16
	}
	now := cc.Comm().Now()
	rc := &repairClock{sender: sender, since: now, emptyDue: now, emptyWait: repairProbe, askWait: repairProbe}
	for i := 0; i < silent; i++ {
		rc.emptyDue, rc.emptyWait = rc.emptyDue+rc.emptyWait, doubleProbe(rc.emptyWait)
	}
	rc.silence = rc.emptyDue - now
	return rc
}

// doubleProbe doubles a repair interval, up to 1024 repairProbe.
func doubleProbe(d int64) int64 { return min(2*d, repairProbe<<10) }

// look reads what the device holds of the message (CollCtx.MissingFrom).
func (rc *repairClock) look(cc mpi.CollCtx) {
	rc.msgID, rc.missing, rc.seen, rc.partial = cc.MissingFrom(rc.sender)
	rc.started = rc.started || rc.partial
}

// complete reports that an earlier look found some of the message and
// the last found none: it arrived whole and is on its way up to a
// receive.
func (rc *repairClock) complete() bool { return rc.started && !rc.partial }

// extend lengthens by d the silence before the first empty request.
func (rc *repairClock) extend(d int64) {
	rc.silence += d
	rc.emptyDue += d
}

// heard records t, when the receiver last saw traffic arrive that the
// message may be queued behind, and quiet, how long that traffic must
// have been silent before the rest of a partial message is asked for
// (heardQuiet, or the traffic's own pace under evidence of loss): no
// request for the message is due until quiet after t if some of it
// arrived, the silence budget after t if nothing did.
func (rc *repairClock) heard(t, quiet int64) {
	rc.heardAt = max(rc.heardAt, t)
	rc.quiet = quiet
}

// heardQuiet is how long a receiver that hears other traffic (heard)
// waits after the latest of it before it asks for the rest of a partial
// message: as long as it waits before asking for a one-fragment message
// of which nothing arrived. A message that interleaves with others has
// no pace of its own — the next fragment of one of N-1 senders
// multicasting at once is N-1 fragments away, and on a shared segment a
// station's arrivals pause while its neighbours are served — so the
// quiet that counts is the quiet of all of them. It holds only without
// evidence of loss: with it, the repaired burst asks at that traffic's
// own pace (repairedWindow).
const heardQuiet = 7 * repairProbe

// due returns when the next request for the message is due, by what
// the last look found.
func (rc *repairClock) due() int64 {
	if !rc.partial {
		rc.since = max(rc.since, rc.heardAt)
		return max(rc.emptyDue, rc.heardAt+rc.silence)
	}
	rc.since = rc.seen.Last
	if rc.heardAt == 0 {
		return max(rc.since+max(4*rc.seen.Gap(), repairProbe/8), rc.askDue)
	}
	return max(rc.since+repairProbe/8, rc.heardAt+rc.quiet, rc.askDue)
}

// ask sends the request that came due at now in the operation cc: for
// the missing fragments when the last look found the message partial, a
// full resend otherwise.
func (rc *repairClock) ask(cc mpi.CollCtx, now int64) error {
	c := cc.Comm()
	if err := cc.CheckFailures(); err != nil {
		return err
	}
	if rc.requests >= maxRepairs {
		return fmt.Errorf("core: receiver %d gave up waiting for sender %d's multicast after %d repair requests",
			c.Rank(), rc.sender, rc.requests)
	}
	var req []byte
	if rc.partial {
		req = transport.EncodeRepairReq(rc.msgID, rc.missing)
	}
	cc.TraceEvent("send.nack", now-rc.since)
	if err := cc.Send(rc.sender, phaseNack, req, transport.ClassNack, false); err != nil {
		return err
	}
	rc.requests++
	now = c.Now()
	if rc.partial {
		rc.askDue, rc.askWait = now+rc.askWait, doubleProbe(rc.askWait)
	} else {
		rc.since = now
		rc.emptyDue, rc.emptyWait = now+rc.emptyWait, doubleProbe(rc.emptyWait)
	}
	return nil
}

// transmitRound is the sender's half of a data phase: every send of the
// round once, in order. It returns what was sent, each send under its
// device message id.
func transmitRound(cc mpi.CollCtx, rd *roundPlan) ([]send, error) {
	sent := rd.sends()
	for i, s := range sent {
		if err := cc.Multicast(s.scope, s.payload, rd.class); err != nil {
			return nil, err
		}
		sent[i].id = cc.LastMulticastID()
	}
	return sent, nil
}

// receiveRound is a receiver's half of a data phase: take the payload
// sent to this rank's scope, consume it and, under repair, confirm
// receipt so the sender can retire the round.
func receiveRound(cc mpi.CollCtx, rd *roundPlan, rep bool) error {
	m, err := awaitMulticast(cc, rd.sender, rd.scope(cc.Comm().Rank()), rd.bytes, rep)
	if err != nil {
		return err
	}
	if err := rd.consume(m.Payload); err != nil || !rep {
		return err
	}
	return cc.Send(rd.sender, phaseAck, nil, transport.ClassAck, false)
}

// serveRepairs runs the sender side of the NACK protocol for one round:
// after transmitRound returned sent, it answers repair requests — each
// with the send its source listens on — until every receiver has
// confirmed. nacked reports a repair request already received in the
// operation.
//
// A control round's one empty frame — the barrier's release, the
// repaired burst's confirmation — is also resent unasked once this rank
// has evidence of loss (lossEvident, or a NACK in the operation) and some
// acks are in: when none has come for four of the mean gaps between the
// release and the acks so far (at least repairProbe/8, doubling after
// each resend), those deliveries prove it lost at the ranks still silent
// (RACK's rule, RFC 8985). The failure detector is asked first whether
// the silence is a dead rank. Without evidence the wait blocks as every
// receive does.
func serveRepairs(cc mpi.CollCtx, rd *roundPlan, sent []send, nacked bool) error {
	c := cc.Comm()
	confirmed := make([]bool, c.Size())
	confirmed[rd.sender] = true
	remaining := c.Size() - 1
	start := c.Now()
	lastAck, since := start, start // since: the latest ack or resend
	acks, resends := 0, 0
	for remaining > 0 {
		timeout := int64(-1) // no evidence: wait as every receive does
		if rd.class == transport.ClassControl && acks > 0 && resends < maxRepairs && (nacked || lossEvident(cc)) {
			quiet := max(4*(lastAck-start)/int64(acks), repairProbe/8)
			due := since + min(quiet<<min(resends, 10), repairProbe<<10)
			now := c.Now()
			if now >= due {
				if err := cc.CheckFailures(); err != nil {
					return err
				}
				cc.TraceEvent("resend.release", int64(remaining))
				s := sent[0]
				if err := cc.MulticastRepair(s.scope, s.payload, rd.class, s.id, nil); err != nil {
					return err
				}
				resends++
				since = c.Now()
				continue
			}
			timeout = due - now
		}
		var m transport.Message
		var err error
		if timeout < 0 {
			m, err = cc.RecvPhases(phaseAck, phaseNack)
		} else {
			var ok bool
			if m, _, ok, err = cc.RecvSpan(1, timeout); err == nil && !ok {
				continue // the acks still missing are overdue
			}
		}
		if err != nil {
			return err
		}
		r := cc.SrcRank(m)
		// A NACK from a receiver that has since confirmed raced its own
		// repair; retransmitting for it would be pure waste.
		if confirmed[r] {
			continue
		}
		switch m.Class {
		case transport.ClassNack:
			nacked = true
			if err := repairSend(cc, sent, rd.scope(r), rd.class, m.Payload, r); err != nil {
				return err
			}
			resends++
			since = c.Now()
		case transport.ClassAck:
			confirmed[r] = true
			remaining--
			acks++
			lastAck = c.Now()
			since = lastAck
		}
	}
	return nil
}

// lossEvident reports the evidence the repair clocks act on: this rank's
// device saw the network lose frames within the last reliab.RTO
// (mpi.CollCtx.LastLoss) — the signal that also makes its stream confirm
// its sends. A NACK this rank received in the operation is the same
// evidence, which the caller adds.
func lossEvident(cc mpi.CollCtx) bool {
	at := cc.LastLoss()
	return at > 0 && cc.Comm().Now()-at < reliab.RTO
}

// repairSend answers rank r's repair request req with the send of sent
// addressed to scope, the one r listens on: the fragments req names, or
// the whole message when the request is unusable or stale (the receiver
// saw nothing of this message, or names an older one).
func repairSend(cc mpi.CollCtx, sent []send, scope mpi.Scope, class transport.Class, req []byte, r int) error {
	i := slices.IndexFunc(sent, func(s send) bool { return s.scope == scope })
	if i < 0 {
		return fmt.Errorf("core: repair request from %d, to whom rank %d sent nothing", r, cc.Comm().Rank())
	}
	s := sent[i]
	reqID, frags, err := transport.DecodeRepairReq(req)
	if err != nil || reqID != s.id || len(frags) == 0 {
		frags = nil
	}
	return cc.MulticastRepair(s.scope, s.payload, class, s.id, frags)
}
