package reliab

import (
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// pingNonce marks a failure detector's liveness probe. It shares the
// stream probe wire format, but real probe nonces count up from 1, so
// the answering ack never matches a send horizon at the prober — inert
// to the stream state machine — and must not count as stream activity.
const pingNonce = 0xFFFFFFFF

// Host is what a transport hands the driver of one endpoint.
type Host struct {
	Rank, Size int // this endpoint's rank and the world size
	// FragPayload is the message payload the transport carries per wire
	// frame: streamed messages are split to it, and it bounds a control
	// body, which rides one unfragmented frame.
	FragPayload int
	Stats       *StatCounters     // may be shared by every endpoint of a network
	Trace       *trace.Recorder   // stream.probe / stream.retransmit / stream.lossy instants; nil-safe
	Metrics     *metrics.Registry // nil: no stream gauges, credit gauge or retransmit meter
	opts        Options           // zero fields: the constants (NewDriver fills them)
}

// Step is what a call on the sending side or a control frame (Sent,
// Stall, OnTimer, OnCtl) asks of the transport, carried out in field
// order: wake Ping waiters, put the control body and then the resends on
// the wire towards the peer, arm the peer's one-shot probe timer, wake
// senders blocked on the window. A data fragment goes to Receive, which
// answers with an Arrival instead. The order is part of the contract —
// under the simulator same-instant events run in scheduling order, and
// its recorded event counts pin it. An Arm while the peer's
// timer is still pending replaces it with an earlier one (the stream's
// timeout shrank): the transport may stop the old timer or let it fire,
// OnTimer ignores it.
type Step struct {
	Acked  bool     // an acknowledgment from the peer was consumed
	Ctl    []byte   // control body (probe or ack) to send; nil: none
	Resend []Resend // recorded fragments the peer proved lost
	Arm    int64    // >0: call OnTimer for this peer after Arm nanoseconds
	Freed  bool     // window space was freed
	Err    error    // the stream just failed: surface it to blocked callers
}

// sendPeer is the sender half of one peer's stream plus its probe timer
// state. lastActivity records the most recent send or acknowledgment:
// probes fire RTO after the LAST activity, not the first, so a long
// collective's steady traffic never provokes mid-run protocol frames.
type sendPeer struct {
	ss           *SendStream
	armed        bool  // a timer is pending
	due          int64 // when it fires; a firing before then is a replaced timer's
	lastActivity int64
	failed       bool   // the failure detector declared the peer dead
	acked        uint64 // acks consumed from the peer: the evidence Ping waits for
	mg           *metrics.StreamGauges
}

// recvPeer is the receiver half of one peer's stream plus the
// volunteer-ack throttle (at most one unsolicited ack per quarter of the
// peer's RTO, so gap evidence cannot turn into an ack storm).
type recvPeer struct {
	rs        *RecvStream
	nextAckAt int64
}

// Driver runs every stream of one endpoint and reassembles every message
// it receives. The owner serializes calls (the simulator's single thread,
// a transport mutex); the driver never blocks, reads no clock and writes
// no frame.
type Driver struct {
	h           Host
	reasm       transport.Reassembler
	retransmits *metrics.Meter
	// Per-peer state is indexed by rank in slices sized to the world — a
	// lookup per stream fragment is too hot for a map — whose entries are
	// allocated on first use: most endpoints talk to few peers.
	send    []*sendPeer
	recv    []*recvPeer
	err     error // sticky: the first stream to exhaust its probe budget
	stopped bool
	// credit is how many more messages this endpoint sends confirmed: with
	// a probe right behind each (Sent), because the network was seen to
	// lose frames (LossSeen). Zero — always, where nothing is ever lost —
	// is the silent sender the paper's wire was measured with.
	credit      int
	creditGauge *metrics.Gauge
	lossAt      int64 // the clock at the latest LossSeen; 0 before any
}

// NewDriver returns the stream driver of endpoint h.Rank.
func NewDriver(h Host) *Driver {
	h.opts = h.opts.Fill()
	rank := strconv.Itoa(h.Rank)
	return &Driver{h: h, send: make([]*sendPeer, h.Size), recv: make([]*recvPeer, h.Size),
		retransmits: h.Metrics.Meter(metrics.Labeled("mcast_stream_retransmits", "rank", rank), metrics.DefaultMeterTau),
		creditGauge: h.Metrics.Gauge(metrics.Labeled("mcast_stream_confirm_credit", "rank", rank))}
}

// LossSeen tells the driver the network is losing frames right now: a
// fragment flagged transport.Fragment.Repair arrived (the transport calls
// this, after its loss injection — someone in earshot had to send a frame
// twice), an ack called for a retransmission, or a duplicate stream
// fragment came in (the driver calls it itself). The endpoint's next
// RTO/minRTO messages are then sent confirmed (see Sent) — as many
// floor-length round trips as one full timeout is worth, so confirming
// can never cost more wire time than the timeouts it replaces would have
// cost waiting — and every further sighting refills the credit to that,
// never beyond.
func (d *Driver) LossSeen(now int64) {
	if d.credit == 0 {
		d.h.Trace.Event(d.h.Rank, now, "stream.lossy", 0)
	}
	d.setCredit(max(1, int(d.h.opts.rto/minRTO)))
	d.lossAt = now
}

// LastLoss returns when the endpoint last saw the network lose frames
// (LossSeen), on its clock, or 0 if it never has
// (transport.Wire.LastLoss).
func (d *Driver) LastLoss() int64 { return d.lossAt }

func (d *Driver) setCredit(n int) {
	d.credit = n
	d.creditGauge.Set(float64(n))
}

func (d *Driver) valid(rank int) bool { return rank >= 0 && rank < d.h.Size }

func (d *Driver) sendPeer(dst int) *sendPeer {
	sp := d.send[dst]
	if sp == nil {
		sp = &sendPeer{ss: NewSendStream(d.h.opts), mg: metrics.NewStreamGauges(d.h.Metrics, d.h.Rank, dst)}
		d.send[dst] = sp
	}
	return sp
}

func (d *Driver) recvPeer(src int) *recvPeer {
	rp := d.recv[src]
	if rp == nil {
		rp = &recvPeer{rs: NewRecvStream()}
		d.recv[src] = rp
	}
	return rp
}

// Err returns the sticky stream error: non-nil once any stream of this
// endpoint exhausted its probe budget, and on every call after.
func (d *Driver) Err() error { return d.err }

// Stop ends probing (endpoint closed or killed): pending timers fire
// into a no-op.
func (d *Driver) Stop() { d.stopped = true }

// FailPeer records that the failure detector declared dst dead: its
// stream stops probing, so retransmission toward a corpse cannot exhaust
// the probe budget and poison the endpoint.
func (d *Driver) FailPeer(dst int) {
	if d.valid(dst) {
		d.sendPeer(dst).failed = true
	}
}

// PeerFailed reports whether FailPeer was called for dst.
func (d *Driver) PeerFailed(dst int) bool {
	return d.valid(dst) && d.send[dst] != nil && d.send[dst].failed
}

// StreamState is what a stuck-run dump says about one send stream.
type StreamState struct {
	Peer       int
	RTO        int64 // current probe timeout, measured and backed off
	InFlight   int   // unacknowledged messages
	Soliciting bool  // a window probe is unanswered
	Confirming int   // messages the endpoint will still send confirmed (its credit, the same on every stream)
}

// Streams reports the state of every send stream that was ever used.
func (d *Driver) Streams() []StreamState {
	var out []StreamState
	for peer, sp := range d.send {
		if sp != nil {
			out = append(out, StreamState{Peer: peer, RTO: sp.ss.RTO(), InFlight: sp.ss.InFlight(),
				Soliciting: sp.ss.Soliciting(), Confirming: d.credit})
		}
	}
	return out
}

// Full reports whether dst's send window has no room for another message.
func (d *Driver) Full(dst int) bool { return d.sendPeer(dst).ss.Full() }

// InFlight reports dst's unacknowledged messages.
func (d *Driver) InFlight(dst int) int { return d.sendPeer(dst).ss.InFlight() }

// Begin admits m to dst's stream under device message id msgID — the
// caller has checked Full — and returns its fragments, stamped with the
// stream sequence number seq, for the transport to hand to its device
// before calling Sent. Retransmission may happen long after the send
// call returns, so the recorded fragments must not alias a buffer the
// application is free to reuse (plain Send semantics): the payload is
// copied once, here.
func (d *Driver) Begin(dst int, m transport.Message, msgID uint64) (frags []transport.Fragment, seq uint32) {
	m.Kind, m.Src = transport.P2P, d.h.Rank
	m.Payload = append([]byte(nil), m.Payload...)
	frags = transport.Split(m, msgID, d.h.FragPayload)
	seq = d.sendPeer(dst).ss.Begin(msgID, frags)
	for i := range frags {
		frags[i].Stream = seq
	}
	d.h.Stats.MsgsStreamed.Add(1)
	return frags, seq
}

// Sent records that seq's fragments reached the device: only now is the
// message probeable (a probe fired while the host was still paying the
// send cost must not cover it), and the silence period restarts. While the
// endpoint holds credit (LossSeen) the message is confirmed: a probe goes
// out right behind it, so if it — a scout, an ack, a repair request — was
// lost, the answer says so one round trip later and not one timeout later.
// The timeout probe stays armed behind it either way.
func (d *Driver) Sent(now int64, dst int, seq uint32) Step {
	sp := d.send[dst]
	sp.ss.MarkSent(seq)
	sp.mg.SetWindow(sp.ss.InFlight())
	sp.lastActivity = now
	st := Step{Arm: d.arm(now, sp, now+sp.ss.RTO())}
	if d.credit > 0 && !d.stopped && !sp.failed {
		d.setCredit(d.credit - 1)
		d.h.Stats.ConfirmsSent.Add(1)
		st.Ctl = d.probe(now, dst, sp.ss.Confirm(now))
		if d.credit == 0 {
			d.h.Trace.Event(d.h.Rank, now, "stream.quiet", int64(dst))
		}
	}
	return st
}

// Stall runs when admission of a message for dst blocks. A window that is
// genuinely full is not waited out: one probe solicits the receiver's
// state at once, so the stall costs a round trip, not a timeout, and its
// echo is a round-trip sample taken exactly where the stream is busy. A
// transport that blocks admission below the window (the simulator's
// paused-NIC shrink) is exercising flow control, which an ack cannot lift,
// and gets no probe. The timeout probe stays armed behind the solicited
// one, RTO after it, should either frame of the exchange be lost.
func (d *Driver) Stall(now int64, dst int) Step {
	sp := d.sendPeer(dst)
	if d.stopped || d.err != nil || sp.failed {
		return Step{} // the send is about to be refused, not to wait
	}
	d.h.Stats.WindowStalls.Add(1)
	d.h.Trace.Event(d.h.Rank, now, "stream.stall", int64(dst))
	if !sp.ss.Full() {
		return Step{}
	}
	nonce, ok := sp.ss.Solicit(now)
	if !ok {
		return Step{}
	}
	sp.lastActivity = now
	return Step{Ctl: d.probe(now, dst, nonce)}
}

// probe counts and traces one probe to dst and returns its body.
func (d *Driver) probe(now int64, dst int, nonce uint32) []byte {
	d.h.Stats.ProbesSent.Add(1)
	d.h.Trace.Event(d.h.Rank, now, "stream.probe", int64(dst))
	return EncodeProbe(nonce)
}

// arm makes the peer's probe timer fire at due and returns the delay to
// arm a timer with, or 0 when the pending one fires soon enough.
func (d *Driver) arm(now int64, sp *sendPeer, due int64) int64 {
	due = max(due, now+1)
	if sp.armed && sp.due <= due {
		return 0
	}
	sp.armed, sp.due = true, due
	return due - now
}

// OnTimer runs when dst's probe timer fires: nothing acknowledged the
// stream's tail within RTO of its last activity, so solicit the
// receiver's state and back off. The stream fails after maxProbes
// consecutive silent probes.
func (d *Driver) OnTimer(now int64, dst int) Step {
	sp := d.send[dst]
	if !sp.armed || now < sp.due {
		return Step{}
	}
	sp.armed = false
	if d.stopped || d.PeerFailed(dst) || !sp.ss.NeedProbe() {
		return Step{}
	}
	// Active since the timer was armed: the silence period restarts at
	// the last activity — re-arm without probing, so steady traffic
	// provokes no protocol frames on the measured wire.
	if due := sp.lastActivity + sp.ss.RTO(); due > now {
		return Step{Arm: d.arm(now, sp, due)}
	}
	nonce, ok := sp.ss.OnProbeAt(now)
	if !ok {
		if d.err != nil {
			return Step{}
		}
		d.err = fmt.Errorf("reliab: stream %d->%d failed: %d unacknowledged messages after %d probes",
			d.h.Rank, dst, sp.ss.InFlight(), d.h.opts.maxProbes)
		d.h.Stats.StreamFailures.Add(1)
		return Step{Err: d.err}
	}
	return Step{Ctl: d.probe(now, dst, nonce), Arm: d.arm(now, sp, now+sp.ss.RTO())}
}

// OnCtl consumes a stream control body that arrived from src: a probe is
// answered with this receiver's state; an acknowledgment is folded into
// the send window and answered with the retransmissions it calls for.
// Frames from outside the world and malformed bodies are ignored.
func (d *Driver) OnCtl(now int64, src int, body []byte) Step {
	if !d.valid(src) {
		return Step{}
	}
	ack, probe, err := DecodeCtl(body)
	if err != nil {
		return Step{}
	}
	if probe {
		return Step{Ctl: d.ack(now, src, d.recvPeer(src), ack.Nonce)}
	}
	sp := d.sendPeer(src)
	d.h.Stats.AcksReceived.Add(1)
	sp.acked++
	wasFull := sp.ss.Full()
	resend, freed, rtt := sp.ss.HandleAckAt(now, ack)
	if wasFull && freed {
		d.h.Trace.Event(d.h.Rank, now, "stream.credit", int64(src))
	}
	if rtt > 0 {
		snap := sp.ss.RTTSnapshot()
		sp.mg.SetRTT(snap.SRTT, snap.RTTVar, snap.MinRTT, snap.QueueDelay, snap.Gradient)
	}
	sp.mg.SetWindow(sp.ss.InFlight())
	// An ack answering a failure-detector ping is liveness evidence, not
	// stream progress: refreshing the activity clock on it would let
	// periodic pings postpone the recovery probe forever (sweep period <
	// RTO) and starve retransmission of a genuinely lost fragment.
	if ack.Nonce != pingNonce {
		sp.lastActivity = now
	}
	st := Step{Acked: true, Resend: resend, Freed: freed}
	for i, r := range resend {
		n := int64(len(r.Frags))
		d.h.Stats.Retransmits.Add(n)
		d.retransmits.Mark(now, n)
		d.h.Trace.Event(d.h.Rank, now, "stream.retransmit", n)
		// The wire gets flagged copies; the window keeps the originals.
		flagged := make([]transport.Fragment, len(r.Frags))
		for j, f := range r.Frags {
			f.Repair = true
			flagged[j] = f
		}
		resend[i].Frags = flagged
	}
	if len(resend) > 0 {
		d.LossSeen(now)
	}
	// Retransmissions need a timer behind them, and a pending one may now
	// be due long after the timeout this ack measured.
	if len(resend) > 0 || sp.armed && sp.ss.NeedProbe() {
		st.Arm = d.arm(now, sp, sp.lastActivity+sp.ss.RTO())
	}
	return st
}

// ack encodes the receiver-side state report for src, or nil when the
// throttle holds it back. Probed acks (nonce != 0) always go out;
// volunteer acks are limited to one per quarter-RTO per peer.
func (d *Driver) ack(now int64, src int, rp *recvPeer, nonce uint32) []byte {
	if nonce == 0 && now < rp.nextAckAt {
		return nil
	}
	rp.nextAckAt = now + d.rto(src)/4
	return d.encodeAck(src, rp, nonce, 1)
}

// rto is the clock every timer about peer reads, the probe timer aside
// (it also backs off): the timeout measured on the stream towards peer
// once that has a round-trip sample, RTO before.
func (d *Driver) rto(peer int) int64 {
	if sp := d.send[peer]; sp != nil {
		return sp.ss.measuredRTO()
	}
	return d.h.opts.rto
}

// encodeAck encodes src's receive state, counted as n acks sent.
func (d *Driver) encodeAck(src int, rp *recvPeer, nonce uint32, n int) []byte {
	a := rp.rs.AckState(func(msgID uint64) []int { return d.reasm.Missing(src, msgID) }, nonce)
	d.h.Stats.AcksSent.Add(int64(n))
	return EncodeAck(a, d.h.FragPayload)
}

// Arrival is what Receive made of one data fragment. The transport
// carries it out in field order: put Ack on the wire Acks times, hand Msg
// up if Done, then put Throttled on the wire — all towards the fragment's
// source.
type Arrival struct {
	// Ack acknowledges a delivered Reliable message eagerly, as the kernel's
	// TCP did instead of staying silent until probed: Acks unthrottled
	// copies, one per two fragments that arrived (TCP's delayed ack). The
	// acks are real, droppable stream frames that load the wire.
	Ack  []byte
	Acks int
	// Msg is the message the fragment completed (Done), and Frags how many
	// fragments arrived for it, duplicates included. A message completed
	// without room was not delivered: the transport drops it.
	Msg   transport.Message
	Done  bool
	Frags int
	// Throttled is an unsolicited ack, at most one per quarter of the peer's
	// RTO: src's stream already proves a loss (a newer message's fragments
	// arrived past a gap), so repair need not wait for a probe, or a
	// duplicate of a delivered message arrived (a retransmission raced the
	// ack) and the sender should retire it. nil: none.
	Throttled []byte
}

// Receive takes one data fragment (not a control frame: those go to
// OnCtl) that survived the transport's loss injection, at now. A streamed
// fragment that duplicates a delivered message is dropped before it can
// found ghost reassembly state, and is evidence of loss (LossSeen); any
// other is reassembled. room reports whether the transport can take a
// completed message: a streamed one it cannot take is neither delivered
// nor acknowledged, so the sender's probe drives a full resend once there
// is room again. Fragments from outside the world and malformed ones
// yield nothing.
func (d *Driver) Receive(now int64, f transport.Fragment, room bool) (a Arrival) {
	src := f.Msg.Src
	if !d.valid(src) {
		return a
	}
	var rp *recvPeer
	if f.Stream != 0 && f.Msg.Kind == transport.P2P {
		rp = d.recvPeer(src)
		if !rp.rs.Fresh(f.Stream, f.MsgID) {
			d.h.Stats.DupFragments.Add(1)
			d.LossSeen(now) // the sender is retransmitting
			a.Throttled = d.ack(now, src, rp, 0)
			return a
		}
	}
	m, n, done, err := d.reasm.Accept(f, now)
	if err != nil {
		return a
	}
	a.Msg, a.Done, a.Frags = m, done, n
	if rp == nil || done && !room {
		return a
	}
	if done {
		rp.rs.Deliver(f.Stream)
		if m.Reliable {
			a.Acks = (n + 1) / 2
			a.Ack = d.encodeAck(src, rp, 0, a.Acks)
		}
	}
	if rp.rs.Gapped() {
		a.Throttled = d.ack(now, src, rp, 0)
	}
	return a
}

// PendingFrom reports the newest partially reassembled multicast from src
// (transport.Wire.PendingFrom).
func (d *Driver) PendingFrom(src int) (msgID uint64, missing []int, seen transport.Arrivals, ok bool) {
	return d.reasm.PendingFrom(src)
}

// Pending reports how many partially reassembled messages the endpoint holds.
func (d *Driver) Pending() int { return d.reasm.Pending() }

// Ping returns the body of a liveness probe for dst and the evidence
// count to compare AcksSeen against: any ack consumed from dst after the
// probe went out proves it alive.
func (d *Driver) Ping(dst int) (probe []byte, seen uint64) {
	d.h.Stats.ProbesSent.Add(1)
	return EncodeProbe(pingNonce), d.AcksSeen(dst)
}

// AcksSeen reports how many acknowledgments from peer were consumed.
func (d *Driver) AcksSeen(peer int) uint64 {
	if d.send[peer] == nil {
		return 0
	}
	return d.send[peer].acked
}
