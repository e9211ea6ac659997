// Package reliab implements the reliable point-to-point delivery
// protocol both network transports (simnet, udpnet) layer under the MPI
// bypass traffic: per-peer sequence-numbered streams with a sliding send
// window, cumulative acknowledgments, and selective retransmission on
// timeout.
//
// The paper's NACK protocol repairs multicast fragments only; every
// reduce half, gather chunk and scout rides raw unicast, so a single
// lost point-to-point frame deadlocks the collective that was waiting
// for it. This layer closes that gap the way the multicast repair does —
// receiver state names exactly what is missing — but sender-driven,
// because unicast has exactly one receiver and the sender already holds
// the payload:
//
//   - Every streamed message carries a per-(sender,peer) sequence number
//     in the fragment header (transport.Fragment.Stream). The sender
//     keeps the fragments of up to Window unacknowledged messages and
//     blocks (or paces) when the window is full — backpressure, never a
//     silent drop.
//
//   - The receiver is silent on the happy path: frames are delivered as
//     they complete, duplicates are suppressed by sequence number, and
//     no acknowledgment traffic rides the wire while everything arrives.
//     This keeps the lossless wire byte-for-byte identical to the
//     paper's model (the frame-count formulas of §3 still hold exactly).
//
//   - The sender asks: a probe solicits one cumulative ACK naming
//     everything the receiver has — delivered sequence numbers
//     (cumulative + selective) and, for partially reassembled messages,
//     the exact missing fragment indexes (the receiver's reassembler
//     already tracks them, mirroring transport.Wire's PendingFrom). It
//     asks at once when a send finds the window full, so a busy stream
//     pays one round trip for credit and never waits on a timer, and
//     after RTO of silence otherwise, with exponential backoff, failing
//     the stream after maxProbes consecutive probes without progress.
//     Every probe carries a nonce its ACK echoes, so each exchange is a
//     clean round-trip sample, and the timeout is read from those
//     samples: the constant RTO is where it starts and its ceiling (see
//     SendStream.RTO). The sender retransmits only what an ACK proves
//     lost.
//
//   - A receiver that can prove a loss early — a later sequence number
//     completed while an earlier one is missing, or duplicate fragments
//     arrived (the sender is already retransmitting) — volunteers an ACK
//     without waiting for a probe, so repair converges in one round trip
//     instead of an RTO. Such ACKs are throttled on the same measured
//     clock.
//
//   - Silence is for a network that delivers. A stream that sends one
//     scout per collective has no later message to expose a gap and, in a
//     short run, no round-trip sample when its first loss comes: a lost
//     scout waits the full RTO. So the sender also acts on
//     evidence that frames are being lost right now. Every retransmission
//     — a stream resend, a multicast repair, which the whole group hears
//     — carries a flag bit in its header (transport.Fragment.Repair); an
//     endpoint that receives one, whose acks call for one, or that
//     receives a duplicate has seen the evidence (Driver.LossSeen), and
//     it buys RTO/minRTO confirmed messages: each goes out with a
//     probe right behind it, answered within a round trip, which also is
//     a round-trip sample. Evidence refills that credit, never beyond it;
//     spent without more evidence, the endpoint is silent again. No
//     estimator is shared between streams and no timeout is shortened: an
//     endpoint that never sees evidence sends, frame for frame, what it
//     would send without this rule. The collectives' repair clocks read
//     the same evidence (Driver.LastLoss, through transport.Wire): within
//     RTO of a sighting, a release's sender resends it to the ranks whose
//     acks are overdue and the repaired burst asks for a lost fragment at
//     its own pace, and without one both wait exactly as before.
//
// The package holds the protocol state machines (SendStream, RecvStream),
// the control wire format, and the Driver that runs every stream of one
// endpoint: all protocol decisions — when to probe, what counts as
// activity, when to acknowledge, what to retransmit — are made there,
// once, for both transports. The driver also owns the endpoint's
// reassembler, so what an ack says is partial and what a multicast repair
// request names come from the one table. The driver reads no clock, owns
// no timer and writes no frame. Its transport serializes calls into it
// and passes the current time (virtual-time events on the engine's one
// thread in simnet; a mutex and the wall clock in udpnet), supplies at
// construction its fragment size and where to count (Host), tells it when
// a send blocks on the window (Stall) and when a repair-flagged fragment
// arrives (LossSeen), and hands it every fragment that survived its loss
// injection: control frames to OnCtl, data fragments to Receive. It
// carries out each returned Step in field order — wake liveness waiters,
// write the control frame and the retransmissions, arm the peer's
// one-shot probe timer, wake senders blocked on the window — and each
// Arrival likewise: write the eager acks, hand the message up, write the
// unsolicited ack.
package reliab

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/transport"
)

const (
	// Window is the maximum number of unacknowledged messages per peer
	// before SendReliable blocks.
	Window = 32
	// RTO is the probe timeout in clock nanoseconds (virtual time under
	// the simulator, wall time otherwise) — how long a sender stays silent
	// about unacknowledged messages before soliciting an acknowledgment —
	// as an initial value and a ceiling: a stream that has measured its
	// round trip probes on that clock, never slower than this.
	//
	// It sits above a collective's duration on the calibrated testbed on
	// purpose. A stream keeps it until its first probe is answered, and on
	// the happy path that probe is the one that confirms the tail after the
	// traffic quiesced: the measured window of a lossless run at the
	// paper's sizes carries no protocol frames at all and the paper's
	// latency comparisons are undisturbed (a probe that fires
	// mid-collective on a shared hub collides with the data it is probing
	// for). It is also all the tuning there is: once a round trip is
	// measured the stream repairs at that speed, and an endpoint that sees
	// the network lose frames confirms its sends instead of waiting this
	// long (Driver.LossSeen; the credit one sighting buys is this value in
	// units of the 1 ms floor, 25), so lossy runs need no tighter value —
	// and a tighter one puts probes inside the window the paper measured.
	RTO = 25_000_000
	// maxProbes bounds consecutive probes without progress before the
	// stream is declared broken.
	maxProbes = 20
)

// Options carries a stream's window, probe timeout and probe budget.
// Every transport runs the constants Fill applies; the fields are
// unexported so that only this package's tests, which drive the model on
// a smaller window and budget, run anything else.
type Options struct {
	window    int
	rto       int64
	maxProbes int
}

// Fill replaces zero fields with Window, RTO and maxProbes.
func (o Options) Fill() Options {
	if o.window <= 0 {
		o.window = Window
	}
	if o.rto <= 0 {
		o.rto = RTO
	}
	if o.maxProbes <= 0 {
		o.maxProbes = maxProbes
	}
	return o
}

// minRTO is the floor of a measured probe timeout (SendStream.measuredRTO):
// eight full-size frame times on the modelled 100 Mbit/s Ethernet, so a
// probe cannot overtake through one switch queue the burst it asks about,
// and about what a loaded real host's timers and scheduler resolve.
const minRTO = 1_000_000

// Stats counts protocol events on one endpoint's streams (all peers).
type Stats struct {
	MsgsStreamed   int64 // messages sent over streams
	Retransmits    int64 // data fragments retransmitted
	ProbesSent     int64 // ack-soliciting probes, of every kind
	ConfirmsSent   int64 // of those, sent right behind a message while the network was seen to lose frames
	AcksSent       int64 // acknowledgment frames emitted (receiver side)
	AcksReceived   int64 // acknowledgment frames consumed (sender side)
	DupFragments   int64 // duplicate stream fragments suppressed
	WindowStalls   int64 // sends that had to wait for window space
	PauseStalls    int64 // sends blocked by the shrunk paused-NIC window
	StreamFailures int64 // streams that exhausted their probe budget
}

// ---------------------------------------------------------------------------
// Sender side.

// outMsg is one unacknowledged message in the send window.
type outMsg struct {
	seq   uint32
	msgID uint64
	frags []transport.Fragment
	// since is the lowest probe nonce whose answer can know of the
	// message's latest transmission, first or repeated: one more than the
	// last nonce issued when that transmission was handed to the device
	// (0: the first one is still being written). An ack echoing an older
	// nonce was solicited before the fragments left and races them on the
	// wire.
	since uint32
}

// SendStream is the sender half of one peer's stream. It is a pure
// state machine: the owner serializes access and owns timers/transmits.
type SendStream struct {
	opts    Options
	next    uint32             // next sequence number to assign (first is 1)
	cum     uint32             // highest cumulatively acknowledged sequence
	unacked map[uint32]*outMsg // in-window, not yet acknowledged
	probes  int                // consecutive timeout probes without progress
	rto     int64              // current probe timeout: measuredRTO, doubled per probe while probes > 0
	// nonce numbers the probes and answered is the newest one an ack has
	// echoed: the probes in between are outstanding, and only their
	// answers count as probed acks — an older probe's answer arriving
	// late is as stale as an unsolicited ack. solicited is the last nonce
	// Solicit issued.
	nonce, answered, solicited uint32
	// sent records each outstanding probe: its transmit time, so the ack
	// echoing its nonce yields a round-trip sample that rtt folds into the
	// live congestion observables (smoothed RTT, variance, floor,
	// gradient), and whether a timeout sent it.
	sent map[uint32]sentProbe
	rtt  RTT
	// idle is the silence the stream has learned to tolerate beyond what
	// the estimator asks for (see measuredRTO).
	idle int64
}

// sentProbe is one outstanding probe.
type sentProbe struct {
	at      int64 // clock nanoseconds; 0: no timestamp, the echo is no sample
	timeout bool  // sent by OnProbeAt because the stream was silent for RTO
}

// NewSendStream returns an empty stream under o (which must be filled).
func NewSendStream(o Options) *SendStream {
	return &SendStream{opts: o, unacked: make(map[uint32]*outMsg), rto: o.rto, sent: make(map[uint32]sentProbe)}
}

// Full reports whether the send window has no room for another message.
func (s *SendStream) Full() bool { return len(s.unacked) >= s.opts.window }

// InFlight reports the number of unacknowledged messages.
func (s *SendStream) InFlight() int { return len(s.unacked) }

// Begin assigns the next sequence number and records the message's
// fragments (as transmitted, so retransmission reuses them verbatim).
// The caller must have checked Full, and must call MarkSent once the
// fragments have been handed to the device.
func (s *SendStream) Begin(msgID uint64, frags []transport.Fragment) uint32 {
	s.next++
	seq := s.next
	s.unacked[seq] = &outMsg{seq: seq, msgID: msgID, frags: frags}
	return seq
}

// MarkSent records that seq's fragments reached the device: from now on
// an ack may speak for the message. Until then — the simulator charges
// the host send cost, a socket write is under way — a probe must not
// treat it as probed nor an ack's word on it be taken.
func (s *SendStream) MarkSent(seq uint32) {
	if om := s.unacked[seq]; om != nil {
		om.since = s.nonce + 1
	}
}

// RTO returns the current probe timeout: measuredRTO, doubled by each
// timeout probe without progress up to 256 times the package's RTO.
// Progress returns it to the measured value.
func (s *SendStream) RTO() int64 { return s.rto }

// measuredRTO is the probe timeout before back-off. Until the stream has
// a round-trip sample it is the package's RTO. From then on it is the
// estimator's srtt + 4·rttvar, raised to the silence the stream has
// learned is idleness and held between minRTO and RTO, which thereby is
// the initial value and the ceiling.
//
// The receiver is silent, so every burst's tail stays unacknowledged and
// a quiet gap longer than the timeout costs a probe whether or not
// anything was lost. The estimator alone cannot tell the two apart; the
// probe's answer can. A timeout probe that finds everything it covered
// delivered was needless: the gap it cut short was the stream's own send
// cadence, and the stream doubles the silence it tolerates. An ack that
// calls for a retransmission shows a path that does lose frames, and
// returns the timeout to what was measured. A quiet path therefore
// drifts back to RTO at the price of a few probes per stream, and a lossy
// one repairs at the speed of its round trip.
func (s *SendStream) measuredRTO() int64 {
	if s.rtt.samples == 0 {
		return s.opts.rto
	}
	rto := max(int64(s.rtt.srtt+4*s.rtt.rttvar), s.idle, minRTO)
	return min(rto, s.opts.rto)
}

// NeedProbe reports whether unacknowledged messages warrant a probe.
func (s *SendStream) NeedProbe() bool { return len(s.unacked) > 0 }

// OnProbeAt records a timeout probe being sent at now (clock
// nanoseconds) and backs the timeout off. It returns the probe's nonce
// (to carry on the wire) and ok=false when the stream has exhausted its
// probe budget without progress and must be declared broken. The ack
// echoing the nonce yields a round-trip sample for the stream's RTT
// estimator; a zero now records no timestamp, so no sample will be taken.
func (s *SendStream) OnProbeAt(now int64) (nonce uint32, ok bool) {
	s.probes++
	if s.probes > s.opts.maxProbes {
		return 0, false
	}
	s.rto = min(2*s.rto, s.opts.rto<<8)
	return s.probe(now, true), true
}

// Solicit records a probe sent at now because the window is full: the
// sender wants the receiver's state now, not after a timeout. Nothing
// timed out, so the probe spends no probe budget and backs nothing
// off; at most one is outstanding (ok=false while the last one is), so a
// stall costs one probe however many senders block on it.
func (s *SendStream) Solicit(now int64) (nonce uint32, ok bool) {
	if s.Soliciting() {
		return 0, false
	}
	s.solicited = s.probe(now, false)
	return s.solicited, true
}

// Confirm records a probe sent at now right behind a message, because
// the network was seen to lose frames and the sender wants to hear within
// a round trip, not a timeout, whether this one arrived. Like a window
// probe it spends no probe budget, backs nothing off and its echo is a
// round-trip sample; unlike one it goes out per message, because an ack
// licenses a whole resend only when its probe left after the message did
// (outMsg.since).
func (s *SendStream) Confirm(now int64) (nonce uint32) { return s.probe(now, false) }

// Soliciting reports whether a Solicit probe is unanswered: neither its
// own ack nor a newer probe's has arrived.
func (s *SendStream) Soliciting() bool { return s.solicited > s.answered }

func (s *SendStream) probe(now int64, timeout bool) uint32 {
	s.nonce++
	s.sent[s.nonce] = sentProbe{at: max(now, 0), timeout: timeout}
	return s.nonce
}

// RTTSnapshot returns the stream's round-trip estimator state (zero
// before the first probe/ack sample). The owner serializes access like
// every other SendStream method; cross-thread export belongs to the
// transport's metrics gauges.
func (s *SendStream) RTTSnapshot() RTTSnapshot { return s.rtt.Snapshot() }

// Resend names what an acknowledgment proved lost: the fragments of one
// recorded message to put back on the wire.
type Resend struct {
	Seq   uint32
	Frags []transport.Fragment // subset (or all) of the original fragments
}

// HandleAckAt folds an acknowledgment received at now (clock
// nanoseconds) into the window. It returns the retransmissions the ack
// calls for and whether window space was freed (so a blocked sender can
// be woken). Progress — anything newly acknowledged — resets the probe
// backoff. When the ack echoes a probe whose transmit time was recorded
// by OnProbeAt, the round trip is folded into the stream's RTT estimator
// and returned (0 otherwise) so the driver can refresh its live gauges.
//
// Retransmission policy: sequences the receiver reports partially
// reassembled are resent selectively (exactly the named missing
// fragments); sequences the ack omits entirely are resent whole, but only
// when the ack answers an outstanding probe, because only a probed ack's
// silence means "I hold nothing of it". Either way a message is resent
// only on the word of an ack that can have been written after the
// message's latest transmission reached the device: a probed ack speaks
// for what was at the device when its probe left (outMsg.since), any
// other ack for what is there by now. Fragments still being written, sent
// after the probe, or already resent on an earlier answer race the ack on
// the wire, and resending them on its word would be pure duplication.
func (s *SendStream) HandleAckAt(now int64, a Ack) (resend []Resend, freed bool, rtt int64) {
	asked := s.sent[a.Nonce]
	if asked.at > 0 && now > asked.at {
		rtt = now - asked.at
		s.rtt.Observe(rtt)
	}
	progress := false
	retire := func(seq uint32) {
		if _, ok := s.unacked[seq]; ok {
			delete(s.unacked, seq)
			progress = true
			freed = true
		}
	}
	for seq := range s.unacked {
		if seq <= a.Cum {
			retire(seq)
		}
	}
	if a.Cum > s.cum {
		s.cum = a.Cum
		progress = true
	}
	for _, seq := range a.Sacks {
		retire(seq)
	}
	probed := a.Nonce > s.answered && a.Nonce <= s.nonce
	if probed {
		// This probe is answered — its round trip is spent whether or not
		// it produced a sample — and older probes' answers are now stale.
		s.answered = a.Nonce
		for n := range s.sent {
			if n <= a.Nonce {
				delete(s.sent, n)
			}
		}
	}
	partial := make(map[uint32][]int, len(a.Partials))
	for _, p := range a.Partials {
		partial[p.Seq] = p.Missing
	}
	// Deterministic resend order (map iteration is randomized).
	seqs := make([]int, 0, len(s.unacked))
	for seq, om := range s.unacked {
		if om.since != 0 && (!probed || om.since <= a.Nonce) {
			seqs = append(seqs, int(seq))
		}
	}
	sort.Ints(seqs)
	for _, si := range seqs {
		seq := uint32(si)
		om := s.unacked[seq]
		// A partial entry must name fragments; an empty list (possible
		// only from a malformed peer — the encoder never emits one) is
		// treated as "holds nothing" and falls through to the probed
		// full-resend below rather than suppressing repair.
		if miss, ok := partial[seq]; ok && len(miss) > 0 {
			sub := make([]transport.Fragment, 0, len(miss))
			for _, idx := range miss {
				if idx >= 0 && idx < len(om.frags) {
					sub = append(sub, om.frags[idx])
				}
			}
			if len(sub) > 0 {
				resend = append(resend, Resend{Seq: seq, Frags: sub})
			}
			continue
		}
		if probed {
			// The receiver answered a probe covering this message and
			// holds nothing of it: every fragment was lost, resend all.
			resend = append(resend, Resend{Seq: seq, Frags: om.frags})
		}
	}
	for _, r := range resend {
		s.unacked[r.Seq].since = s.nonce + 1 // only a probe yet to be sent can know of this transmission
	}
	switch {
	case len(resend) > 0:
		s.idle = 0
	case probed && asked.timeout && len(seqs) == 0:
		s.idle = min(2*s.measuredRTO(), s.opts.rto)
	}
	if progress {
		s.probes = 0
	}
	if s.probes == 0 {
		s.rto = s.measuredRTO()
	}
	return resend, freed, rtt
}

// ---------------------------------------------------------------------------
// Receiver side.

// RecvStream is the receiver half of one peer's stream: duplicate
// suppression and acknowledgment state. Delivery order is arrival order
// (MPI matching tolerates reordering); the sequence numbers exist for
// exactly-once delivery and for naming losses, not for resequencing.
type RecvStream struct {
	cum uint32 // every sequence <= cum has been delivered
	// above holds delivered sequences > cum in ascending order. A sorted
	// slice instead of a set: the window bounds it to a few dozen
	// entries, insertions are rare (only out-of-order completions), and
	// every ack can then copy it into Sacks verbatim instead of sorting
	// per ack on the lossy-sweep hot path.
	above   []uint32
	partial map[uint32]uint64 // seen but incomplete: seq -> device msgID
	horizon uint32            // highest sequence number seen at all
}

// NewRecvStream returns an empty receive stream.
func NewRecvStream() *RecvStream {
	return &RecvStream{partial: make(map[uint32]uint64)}
}

// delivered reports whether seq sits in the above list.
func (r *RecvStream) delivered(seq uint32) (idx int, ok bool) {
	i := sort.Search(len(r.above), func(i int) bool { return r.above[i] >= seq })
	return i, i < len(r.above) && r.above[i] == seq
}

// Fresh reports whether a fragment with the given sequence number is new
// (not yet delivered); duplicates of delivered messages must be dropped
// before they reach the reassembler, where they would found ghost
// partial state. It also records the stream horizon and the partial
// message id for loss naming.
func (r *RecvStream) Fresh(seq uint32, msgID uint64) bool {
	if seq <= r.cum {
		return false
	}
	if _, ok := r.delivered(seq); ok {
		return false
	}
	if seq > r.horizon {
		r.horizon = seq
	}
	r.partial[seq] = msgID
	return true
}

// Deliver marks a sequence number fully reassembled and handed up,
// advancing the cumulative horizon over any contiguous prefix.
func (r *RecvStream) Deliver(seq uint32) {
	delete(r.partial, seq)
	if seq <= r.cum {
		return
	}
	i, ok := r.delivered(seq)
	if ok {
		return
	}
	r.above = append(r.above, 0)
	copy(r.above[i+1:], r.above[i:])
	r.above[i] = seq
	// Advance the cumulative horizon over the contiguous prefix.
	n := 0
	for n < len(r.above) && r.above[n] == r.cum+uint32(n)+1 {
		n++
	}
	if n > 0 {
		r.cum += uint32(n)
		rest := copy(r.above, r.above[n:])
		r.above = r.above[:rest]
	}
}

// Gapped reports whether the receiver can already prove a loss without
// waiting for a probe: some sequence number below the horizon is neither
// delivered nor partially held (its fragments vanished entirely), or a
// partial has a newer completed successor. Such evidence triggers a
// volunteer acknowledgment.
func (r *RecvStream) Gapped() bool {
	i := 0
	for seq := r.cum + 1; seq <= r.horizon; seq++ {
		for i < len(r.above) && r.above[i] < seq {
			i++
		}
		if i < len(r.above) && r.above[i] == seq {
			continue
		}
		if _, held := r.partial[seq]; !held {
			return true
		}
	}
	// A partial below the horizon: the sender transmits messages in
	// sequence order, so fragments of a newer message behind the gap have
	// already arrived — the partial's missing fragments are lost, not in
	// flight (both transports deliver a pair's frames near-FIFO).
	for seq := range r.partial {
		if seq < r.horizon {
			return true
		}
	}
	return false
}

// AckState assembles the acknowledgment describing everything this
// receiver holds. missing reports the missing fragment indexes of a
// partially reassembled message by device message id (the driver's
// reassembler owns that state); a non-zero nonce marks the ack as
// answering that probe, which licenses the sender to fully resend what
// the ack omits (up to the probe's horizon).
func (r *RecvStream) AckState(missing func(msgID uint64) []int, nonce uint32) Ack {
	a := Ack{Cum: r.cum, Nonce: nonce}
	if len(r.above) > 0 {
		// above is maintained in ascending order; no per-ack sort.
		a.Sacks = append([]uint32(nil), r.above...)
	}
	seqs := make([]int, 0, len(r.partial))
	for seq := range r.partial {
		seqs = append(seqs, int(seq))
	}
	sort.Ints(seqs)
	for _, si := range seqs {
		seq := uint32(si)
		msgID := r.partial[seq]
		if miss := missing(msgID); len(miss) > 0 {
			a.Partials = append(a.Partials, Partial{Seq: seq, Missing: miss})
		}
	}
	return a
}

// ---------------------------------------------------------------------------
// Control wire format. Control frames ride transport fragments flagged
// FlagStreamCtl with this body as payload; they are consumed by the
// stream layer and never surface as messages.

// Partial names a partially reassembled message in an acknowledgment.
type Partial struct {
	Seq     uint32
	Missing []int // missing fragment indexes
}

// Ack is the receiver's state report.
type Ack struct {
	// Cum: every sequence number <= Cum has been delivered.
	Cum uint32
	// Sacks lists delivered sequence numbers above Cum.
	Sacks []uint32
	// Partials names partially reassembled messages and their missing
	// fragments, so the sender can retransmit selectively.
	Partials []Partial
	// Nonce echoes the probe this ack answers (0: unsolicited). A probed
	// ack's report is complete up to the probe's horizon, so the sender
	// may fully resend any message it omits there.
	Nonce uint32
}

// Control ops.
const (
	opProbe = 1
	opAck   = 2
)

// CtlFrame wraps an encoded control body in the frame rank src sends it
// in. Control frames are real, droppable wire frames of ClassStream, but
// the receiving transport hands them to its driver's OnCtl and they
// never reach the application.
func CtlFrame(src int, msgID uint64, body []byte) transport.Fragment {
	return transport.Fragment{
		Msg:      transport.Message{Kind: transport.P2P, Src: src, Class: transport.ClassStream, Payload: body},
		MsgID:    msgID,
		Count:    1,
		TotalLen: uint32(len(body)),
		Ctl:      true,
	}
}

// EncodeProbe serializes an ack-soliciting probe carrying its nonce.
func EncodeProbe(nonce uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte{opProbe}, nonce)
}

// EncodeAck serializes a, bounded to maxBytes (the transport's fragment
// payload: control frames ride a single unfragmented frame, so an ack
// that cannot fit must shed detail rather than exceed the MTU and be
// undeliverable). Shedding is safe, merely less selective: a truncated
// missing list repairs the named subset now and the rest on a later
// ack; a dropped partial entry makes a probed sender fall back to a
// full resend of that one message. Sacks and partial headers are kept
// ahead of missing-index detail.
//
//	offset size field
//	0      1    op (2)
//	1      4    probe nonce (0: unsolicited)
//	5      4    cumulative sequence
//	9      2    sack count, then 4 bytes per sack
//	-      2    partial count, then per partial:
//	             4 seq, 2 missing count, 2 bytes per missing index
func EncodeAck(a Ack, maxBytes int) []byte {
	const header = 11
	if maxBytes < header+2 {
		maxBytes = header + 2
	}
	// Sized to what a holds, not to the frame: the happy-path ack is 13 bytes.
	need := header + 2 + 4*len(a.Sacks)
	for _, p := range a.Partials {
		need += 6 + 2*len(p.Missing)
	}
	b := make([]byte, 0, min(need, maxBytes))
	b = append(b, opAck)
	b = binary.BigEndian.AppendUint32(b, a.Nonce)
	b = binary.BigEndian.AppendUint32(b, a.Cum)
	sacks := a.Sacks
	if max := (maxBytes - header - 2) / 4; len(sacks) > max {
		sacks = sacks[:max]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(sacks)))
	for _, s := range sacks {
		b = binary.BigEndian.AppendUint32(b, s)
	}
	countAt := len(b)
	b = binary.BigEndian.AppendUint16(b, 0) // partial count, patched below
	partials := 0
	for _, p := range a.Partials {
		// An entry must name at least one missing index: a partial with
		// an empty list would read as "I hold this message" and suppress
		// both selective and full retransmission at the sender — better
		// to omit the entry entirely and let a probed sender fall back
		// to a full resend.
		if len(b)+8 > maxBytes {
			break
		}
		b = binary.BigEndian.AppendUint32(b, p.Seq)
		miss := p.Missing
		if max := (maxBytes - len(b) - 2) / 2; len(miss) > max {
			miss = miss[:max]
		}
		if len(miss) > 0xFFFF {
			miss = miss[:0xFFFF]
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(miss)))
		for _, idx := range miss {
			b = binary.BigEndian.AppendUint16(b, uint16(idx))
		}
		partials++
	}
	binary.BigEndian.PutUint16(b[countAt:], uint16(partials))
	return b
}

// DecodeCtl parses a stream control body: either a probe (probe=true,
// nonce in a.Nonce) or an acknowledgment.
func DecodeCtl(b []byte) (a Ack, probe bool, err error) {
	if len(b) < 1 {
		return a, false, fmt.Errorf("%w: empty stream control", transport.ErrBadPacket)
	}
	switch b[0] {
	case opProbe:
		if len(b) < 5 {
			return a, false, fmt.Errorf("%w: stream probe %d bytes", transport.ErrBadPacket, len(b))
		}
		a.Nonce = binary.BigEndian.Uint32(b[1:5])
		return a, true, nil
	case opAck:
	default:
		return a, false, fmt.Errorf("%w: stream control op %d", transport.ErrBadPacket, b[0])
	}
	if len(b) < 11 {
		return a, false, fmt.Errorf("%w: stream ack %d bytes", transport.ErrBadPacket, len(b))
	}
	a.Nonce = binary.BigEndian.Uint32(b[1:5])
	a.Cum = binary.BigEndian.Uint32(b[5:9])
	off := 9
	nsack := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	if len(b) < off+4*nsack+2 {
		return a, false, fmt.Errorf("%w: stream ack truncated sacks", transport.ErrBadPacket)
	}
	for i := 0; i < nsack; i++ {
		a.Sacks = append(a.Sacks, binary.BigEndian.Uint32(b[off:off+4]))
		off += 4
	}
	nPart := int(binary.BigEndian.Uint16(b[off : off+2]))
	off += 2
	for i := 0; i < nPart; i++ {
		if len(b) < off+6 {
			return a, false, fmt.Errorf("%w: stream ack truncated partial", transport.ErrBadPacket)
		}
		p := Partial{Seq: binary.BigEndian.Uint32(b[off : off+4])}
		nm := int(binary.BigEndian.Uint16(b[off+4 : off+6]))
		off += 6
		if len(b) < off+2*nm {
			return a, false, fmt.Errorf("%w: stream ack truncated missing list", transport.ErrBadPacket)
		}
		for j := 0; j < nm; j++ {
			p.Missing = append(p.Missing, int(binary.BigEndian.Uint16(b[off:off+2])))
			off += 2
		}
		a.Partials = append(a.Partials, p)
	}
	return a, false, nil
}
