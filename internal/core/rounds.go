package core

// The one round engine: every scout-gated multicast of every set is a
// round of it — the paper's broadcast and barrier (one round each, in
// every set: flat, resilient, two-level, sequencer, unsafe), the
// scatter, the handshake and the drain barriers of every exchange, and
// the repaired sequences of the allgather and alltoall. Round r has a
// designated sender; a scout gather toward that sender proves every
// receiver has entered the round, then the sender multicasts once and
// every other rank consumes the payload addressed to it.
//
// Spans: a one-round sequence carries the paper's names, "scout-gather"
// and then "data-mcast" ("release" for a ClassControl round); a longer
// one carries "round-gather" and "round-data".
//
// Schedule: the rounds run one after another (the paper's composition):
// round r+1's scouts are not sent until round r's data has been consumed
// everywhere, so each round pays its full scout gather before its
// multicast. The lossless allgather and alltoall and the chunked
// allreduce's gather run no sequence: once their evidence is in, one
// exchange multicasts every sender's data at its own slot (burst and
// exchange in suite.go). A sequence runs only under NACK repair.
//
// Reliability: the data phase of each round runs in one of two classes:
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
//     fragment loss that the paper's model rules out.
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
	// bytes is the size of the round's largest multicast payload. Every
	// rank must set it identically (payload sizes are symmetric even
	// where contents are not); a repairing receiver budgets its silence
	// by it.
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
// round sequence.
type roundOptions struct {
	// gather runs one rank's part of the scout gather toward the round
	// sender (gatherScoutsBinary, gatherScoutsLinear, noGather).
	gather func(cc mpi.CollCtx, root int) error
	// repair runs every data phase under the receiver-initiated NACK
	// protocol so lost fragments are repaired.
	repair bool
}

// runRounds executes the round sequence on c. Every rank must supply the
// same rounds in the same order; each round opens its own collective
// operation so sequence numbers keep back-to-back multicasts apart.
func runRounds(c *mpi.Comm, rounds []roundPlan, opt roundOptions) error {
	if len(rounds) == 0 || c.Size() == 1 {
		return nil // nothing to move, or nobody to move it to
	}
	gatherSpan, dataSpan := "round-gather", "round-data"
	if len(rounds) == 1 {
		gatherSpan, dataSpan = "scout-gather", "data-mcast"
		if rounds[0].class == transport.ClassControl {
			dataSpan = "release"
		}
	}
	for i := range rounds {
		cc := c.BeginColl()
		cc.SpanBegin(gatherSpan)
		err := opt.gather(cc, rounds[i].sender)
		cc.SpanEnd(gatherSpan)
		if err != nil {
			return err
		}
		if err := tracedDataPhase(cc, dataSpan, &rounds[i], opt.repair); err != nil {
			return err
		}
	}
	return nil
}

// tracedDataPhase moves one round's payloads from the sender to every
// receiver — optionally under NACK repair — inside the span named span:
// the sender's closes plainly (its multicast is the release), a
// receiver's closes gated on the round sender — the edge that lets the
// critical-path walk cross from a waiting rank onto the track of the
// rank it waited for.
func tracedDataPhase(cc mpi.CollCtx, span string, rd *roundPlan, rep bool) error {
	cc.SpanBegin(span)
	if cc.Comm().Rank() != rd.sender {
		err := receiveRound(cc, rd, rep)
		cc.SpanEndGated(span, rd.sender)
		return err
	}
	sent, err := transmitRound(cc, rd)
	if err == nil && rep {
		err = serveRepairs(cc, rd, sent)
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
// sender for what is missing when it is not, give up after maxRepairs
// requests. bytes is the expected payload size (known identically at
// every rank by the collective's contract).
//
// The receiver acts on evidence, on the wire's own clock, and is silent
// without it. Every repairProbe it looks at the device's reassembly
// state for the sender's message (MissingFrom), and it finds one of two
// things.
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
//     twice.
//
//   - Nothing at all. Usually the round has not started — the sender is
//     still finishing the previous round or serving its repairs — rather
//     than every fragment having been lost, and an empty request asks for
//     a FULL resend, which costs an F-fragment round F frames. So the
//     receiver stays silent for as long as a timer doubling from
//     repairProbe would take to expire 3 + F/16 times (seven probe periods for
//     anything up to 16 fragments; losing every fragment of a larger
//     message is p^F-unlikely), then sends the empty request, and again
//     after intervals that keep doubling: growing any slower, the requests
//     of all receivers of a late round pile up into a storm of full
//     resends.
//
// Either request first asks the failure detector (when armed) whether the
// quiet is a dead rank: a receiver asking a dead sender forever would
// otherwise only surface the give-up error.
func awaitMulticast(cc mpi.CollCtx, sender int, scope mpi.Scope, bytes int, rep bool) (transport.Message, error) {
	if !rep {
		return cc.RecvMulticast(scope)
	}
	c := cc.Comm()
	look, longest := repairProbe, repairProbe<<10
	double := func(d int64) int64 { return min(2*d, longest) }
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
	since := c.Now() // the start of the current silence with nothing seen
	emptyDue, emptyWait := since, look
	for i := 0; i < silent; i++ {
		emptyDue, emptyWait = emptyDue+emptyWait, double(emptyWait)
	}
	askDue, askWait := int64(0), look // the earliest a named request may follow the last
	requests := 0
	for {
		msgID, missing, seen, partial := cc.MissingFrom(sender)
		due := emptyDue
		if partial {
			since = seen.Last
			due = max(since+max(4*seen.Gap(), look/8), askDue)
		}
		now := c.Now()
		if now < due {
			m, ok, err := cc.RecvMulticastTimeout(scope, min(look, due-now))
			if err != nil || ok {
				return m, err
			}
			continue
		}
		if err := cc.CheckFailures(); err != nil {
			return transport.Message{}, err
		}
		if requests >= maxRepairs {
			return transport.Message{}, fmt.Errorf("core: receiver %d gave up waiting for sender %d's multicast after %d repair requests",
				c.Rank(), sender, requests)
		}
		var req []byte
		if partial {
			req = transport.EncodeRepairReq(msgID, missing)
		}
		cc.TraceEvent("send.nack", now-since)
		if err := cc.Send(sender, phaseNack, req, transport.ClassNack, false); err != nil {
			return transport.Message{}, err
		}
		requests++
		now = c.Now()
		if partial {
			askDue, askWait = now+askWait, double(askWait)
		} else {
			since = now
			emptyDue, emptyWait = now+emptyWait, double(emptyWait)
		}
	}
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

// indexOf returns the position of the send addressed to scope, or -1.
func indexOf(sent []send, scope mpi.Scope) int {
	return slices.IndexFunc(sent, func(s send) bool { return s.scope == scope })
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
// confirmed.
func serveRepairs(cc mpi.CollCtx, rd *roundPlan, sent []send) error {
	c := cc.Comm()
	confirmed := make([]bool, c.Size())
	confirmed[rd.sender] = true
	remaining := c.Size() - 1
	for remaining > 0 {
		m, err := cc.RecvPhases(phaseAck, phaseNack)
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
			i := indexOf(sent, rd.scope(r))
			if i < 0 {
				return fmt.Errorf("core: repair request from %d, to whom round sender %d sent nothing", r, rd.sender)
			}
			s := sent[i]
			if err := cc.MulticastRepair(s.scope, s.payload, rd.class, s.id, repairFrags(m.Payload, s.id)); err != nil {
				return err
			}
		case transport.ClassAck:
			confirmed[r] = true
			remaining--
		}
	}
	return nil
}

// repairFrags reads a repair request for the multicast sent under msgID:
// the fragments to retransmit, or nil — a full resend — when the request
// is unusable or stale (the receiver saw nothing of this message, or
// names an older one).
func repairFrags(req []byte, msgID uint64) []int {
	reqID, frags, err := transport.DecodeRepairReq(req)
	if err != nil || reqID != msgID || len(frags) == 0 {
		return nil
	}
	return frags
}
