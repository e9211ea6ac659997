package reliab

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// The model: two drivers joined by an in-memory channel on a fake clock.
// A program — fuzz bytes, or a seeded random string of them — admits
// messages, blocks senders on a full window, delivers, drops, duplicates
// and reorders the frames in flight, pings, shows an end a repair-flagged
// fragment from elsewhere in the world, and lets time pass; the harness
// plays the transport (it carries out every Step exactly as simnet and
// udpnet do) and checks the stream's invariants after every action. A
// lossless closing phase then proves eventual delivery.

const (
	modelWindow = 4
	modelProbes = 8
	modelFrag   = 64 // bytes per fragment: room for a dozen sacks in an ack
)

type frame struct {
	to int
	f  transport.Fragment
}

// probeKind is why a probe went out: the stream was silent for its
// timeout, a sender found the window full, or the message just sent is
// being confirmed because the endpoint saw evidence of loss.
type probeKind int

const (
	timeoutProbe probeKind = iota
	windowProbe
	confirmProbe
)

type probeRec struct {
	at      int64 // when the probe went out
	kind    probeKind
	sampled bool
}

// blockedSend is a sender waiting for window space with its message.
type blockedSend struct {
	nfrags   int
	reliable bool
}

// end is one rank: a driver plus the transport state the harness keeps
// for it.
type end struct {
	rank      int
	d         *Driver
	stats     StatCounters
	timerAt   int64   // pending probe timer's fire time (0: none); the world has one peer
	replaced  []int64 // fire times of timers the driver has since replaced with an earlier one
	msgID     uint64
	admitted  map[string]bool // payloads handed to Begin
	delivered map[string]int  // payloads handed up, with multiplicity
	got       map[uint32]bool // sequence numbers of the peer's messages handed up
	arrived   map[uint32]int  // fragments of the peer's undelivered messages that arrived, duplicates included
	nfrags    map[uint32]int  // admitted message's fragment count by sequence number
	// lastTx is, per sequence number, how many probes had been issued
	// when the message's latest transmission — first or repeated — was
	// handed to the device: only a later probe's answer can know of it.
	lastTx  map[uint32]uint32
	blocked []blockedSend // senders waiting on the full window, in order
	probes  map[uint32]*probeRec
	issued  uint32 // newest probe nonce issued
	// answered is the newest issued nonce an ack has echoed; the probes
	// above it are outstanding. windowProbe is the outstanding probe a
	// stall solicited (0: none).
	answered, windowProbe uint32
	silent                int   // timeout probes sent since the last ack was consumed
	credit                int   // messages the driver must still confirm: what the evidence shown to it bought, less what it spent
	lastVol               int64 // time of the last volunteer ack (-1: none yet)
	volGap                int64 // the throttle in force since then
	prevProbes            int   // the send stream's back-off state at the previous check
	prevRTO               int64
	failure               error // the error of the one failing Step
}

type world struct {
	t    testing.TB
	opts Options
	now  int64
	ends [2]*end
	wire []frame
}

func newWorld(t testing.TB) *world {
	return newWorldWith(t, Options{window: modelWindow, maxProbes: modelProbes})
}

func newWorldWith(t testing.TB, opts Options) *world {
	opts = opts.Fill()
	w := &world{t: t, opts: opts, now: 1} // the clock's zero value means "no timestamp"
	for r := range w.ends {
		e := &end{rank: r, admitted: map[string]bool{}, delivered: map[string]int{}, got: map[uint32]bool{},
			arrived: map[uint32]int{}, nfrags: map[uint32]int{}, lastTx: map[uint32]uint32{},
			probes: map[uint32]*probeRec{}, lastVol: -1}
		e.d = NewDriver(Host{Rank: r, Size: 2, opts: opts, FragPayload: modelFrag, Stats: &e.stats})
		w.ends[r] = e
	}
	return w
}

func (w *world) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("t=%dns: %s", w.now, fmt.Sprintf(format, args...))
}

// ctl puts a control body from e on the wire; volunteer marks the acks
// the throttle governs: a quarter of the clock the driver holds for the
// peer, measured once the stream towards it has a round-trip sample.
func (w *world) ctl(e *end, body []byte, volunteer bool) {
	if body == nil {
		return
	}
	if volunteer {
		if e.lastVol >= 0 && w.now-e.lastVol < e.volGap {
			w.fail("rank %d volunteered two acks %dns apart (throttle is %dns)", e.rank, w.now-e.lastVol, e.volGap)
		}
		clock := e.d.rto(1 - e.rank)
		if clock > w.opts.rto || clock < min(minRTO, w.opts.rto) {
			w.fail("rank %d throttles acks by a clock of %dns, outside [%d, %d]", e.rank, clock, min(minRTO, w.opts.rto), w.opts.rto)
		}
		e.lastVol, e.volGap = w.now, clock/4
	}
	e.msgID++
	w.wire = append(w.wire, frame{to: 1 - e.rank, f: CtlFrame(e.rank, e.msgID, body)})
}

// budget is the credit one sighting of loss buys: as many floor-length
// round trips as one configured timeout is worth.
func (w *world) budget() int { return max(1, int(w.opts.rto/minRTO)) }

// evidence records that e's driver was shown, or found, evidence of loss.
func (w *world) evidence(e *end) { e.credit = w.budget() }

// apply carries out a Step in the documented order; kind says what a probe
// in it is: a blocked admission's is the window probe, Sent's confirms the
// message, any other was sent by the timer.
func (w *world) apply(e *end, st Step, kind probeKind) {
	if st.Err != nil {
		if e.failure != nil {
			w.fail("rank %d: stream failure reported twice", e.rank)
		}
		e.failure = st.Err
	}
	if st.Ctl != nil {
		if a, probe, _ := DecodeCtl(st.Ctl); probe {
			e.probes[a.Nonce] = &probeRec{at: w.now, kind: kind}
			e.issued = a.Nonce
			switch kind {
			case windowProbe:
				if e.windowProbe != 0 {
					w.fail("rank %d solicited window credit (nonce %d) while its window probe %d is unanswered", e.rank, a.Nonce, e.windowProbe)
				}
				e.windowProbe = a.Nonce
			case timeoutProbe:
				if e.silent++; e.silent > w.opts.maxProbes {
					w.fail("rank %d sent %d timeout probes with no ack in between, MaxProbes is %d", e.rank, e.silent, w.opts.maxProbes)
				}
			}
		} else if kind == confirmProbe {
			w.fail("rank %d: Sent returned a control body that is no probe", e.rank)
		}
		w.ctl(e, st.Ctl, false)
	}
	for _, r := range st.Resend {
		for _, f := range r.Frags {
			// A retransmission says so on the wire, and only there.
			if !f.Repair {
				w.fail("rank %d resent a fragment of seq %d without the repair flag", e.rank, r.Seq)
			}
			w.wire = append(w.wire, frame{to: 1 - e.rank, f: f})
		}
	}
	if st.Arm > 0 {
		// One live timer per peer: arming while one is pending replaces it,
		// and only ever with an earlier one (the timeout shrank).
		if e.timerAt != 0 {
			if w.now+st.Arm >= e.timerAt {
				w.fail("rank %d armed a second probe timer, due %dns, behind the pending one, due %dns", e.rank, w.now+st.Arm, e.timerAt)
			}
			e.replaced = append(e.replaced, e.timerAt)
		}
		e.timerAt = w.now + st.Arm
	}
	for st.Freed && len(e.blocked) > 0 && e.d.Err() == nil && !e.d.Full(1-e.rank) {
		next := e.blocked[0]
		e.blocked = e.blocked[1:]
		w.admit(e, next)
	}
}

// send has e send one message of nfrags fragments; a reliable one is
// acknowledged eagerly, like modeled TCP. When the window is full (or
// earlier senders are already waiting for it) a blocking sender stalls
// until an ack frees space, as both transports' SendReliable do; a
// non-blocking one gives up.
func (w *world) send(e *end, nfrags int, reliable, block bool) {
	peer := 1 - e.rank
	if e.d.Err() != nil {
		return
	}
	if !e.d.Full(peer) && len(e.blocked) == 0 {
		w.admit(e, blockedSend{nfrags, reliable})
		return
	}
	if block && e.d.Full(peer) && len(e.blocked) < 2*modelWindow {
		e.blocked = append(e.blocked, blockedSend{nfrags, reliable})
		w.apply(e, e.d.Stall(w.now, peer), windowProbe)
	}
}

// admit hands one message to the stream and its fragments to the wire.
func (w *world) admit(e *end, m blockedSend) {
	peer := 1 - e.rank
	payload := make([]byte, (m.nfrags-1)*modelFrag+9)
	payload[0] = byte(e.rank)
	binary.BigEndian.PutUint64(payload[1:], e.msgID)
	e.msgID++
	frags, seq := e.d.Begin(peer, transport.Message{Class: transport.ClassData, Reliable: m.reliable, Payload: payload}, e.msgID)
	if len(frags) != m.nfrags {
		w.fail("split %d bytes into %d fragments, want %d", len(payload), len(frags), m.nfrags)
	}
	e.admitted[string(payload)] = true
	e.nfrags[seq] = m.nfrags
	for _, f := range frags {
		if f.Repair {
			w.fail("rank %d: a first transmission of seq %d carries the repair flag", e.rank, seq)
		}
		w.wire = append(w.wire, frame{to: peer, f: f})
	}
	e.lastTx[seq] = e.issued
	// Sent confirms the message — one probe right behind it, which spends
	// one credit, no MaxProbes budget and backs nothing off — exactly while
	// evidence of loss has bought credit, and is silent otherwise.
	ss := e.d.send[peer].ss
	probes, rto := ss.probes, ss.RTO()
	st := e.d.Sent(w.now, peer, seq)
	switch confirmed := st.Ctl != nil; {
	case confirmed && e.credit == 0:
		w.fail("rank %d confirmed seq %d without evidence of loss", e.rank, seq)
	case !confirmed && e.credit > 0:
		w.fail("rank %d sent seq %d unconfirmed with %d credit left", e.rank, seq, e.credit)
	case confirmed:
		e.credit--
		if ss.probes != probes || ss.RTO() != rto {
			w.fail("rank %d: confirming seq %d moved the timeout budget (%d -> %d probes) or the timeout (%d -> %dns)",
				e.rank, seq, probes, ss.probes, rto, ss.RTO())
		}
	}
	w.apply(e, st, confirmProbe)
}

// recv plays the transport's receive path for one frame arriving at its
// destination: a data fragment goes to the one driver call both
// transports make, and its Arrival is carried out in field order.
func (w *world) recv(fr frame) {
	e, src, f := w.ends[fr.to], fr.f.Msg.Src, fr.f
	if f.Repair {
		e.d.LossSeen(w.now)
		w.evidence(e)
	}
	if f.Ctl {
		w.onCtl(e, src, f.Msg.Payload)
		return
	}
	dup := e.got[f.Stream]
	if dup {
		w.evidence(e) // a duplicate: the sender is retransmitting
	} else {
		e.arrived[f.Stream]++
	}
	a := e.d.Receive(w.now, f, true)
	wantAcks := 0
	if a.Done {
		m := a.Msg
		e.got[f.Stream] = true
		e.delivered[string(m.Payload)]++
		if !w.ends[src].admitted[string(m.Payload)] {
			w.fail("rank %d received a message rank %d never sent", e.rank, src)
		}
		if n := e.delivered[string(m.Payload)]; n != 1 {
			w.fail("rank %d received stream message seq %d %d times", e.rank, f.Stream, n)
		}
		if a.Frags != e.arrived[f.Stream] {
			w.fail("rank %d: seq %d completed after %d fragment arrivals, Receive counted %d", e.rank, f.Stream, e.arrived[f.Stream], a.Frags)
		}
		delete(e.arrived, f.Stream)
		if m.Reliable {
			wantAcks = (a.Frags + 1) / 2 // modeled TCP's delayed ack
		}
	}
	if a.Acks != wantAcks {
		w.fail("rank %d: seq %d yielded %d eager acks, want %d", e.rank, f.Stream, a.Acks, wantAcks)
	}
	for i := 0; i < a.Acks; i++ {
		w.ctl(e, a.Ack, false)
	}
	w.ctl(e, a.Throttled, true)
}

// onCtl feeds a control body to e's driver and checks what the driver
// concluded from it: Karn's rule on the RTT sample, and that every
// retransmission rests on an ack that can know the fragments are lost.
func (w *world) onCtl(e *end, src int, body []byte) {
	samples := func() int64 {
		if sp := e.d.send[src]; sp != nil {
			return sp.ss.RTTSnapshot().Samples
		}
		return 0
	}
	idle := func() int64 {
		if sp := e.d.send[src]; sp != nil {
			return sp.ss.idle
		}
		return 0
	}
	before, idleBefore := samples(), idle()
	st := e.d.OnCtl(w.now, src, body)
	ack, probe, err := DecodeCtl(body)
	if err != nil || probe {
		w.apply(e, st, timeoutProbe)
		return
	}
	e.silent = 0
	rec := e.probes[ack.Nonce]
	if len(st.Resend) > 0 {
		w.evidence(e) // the ack called for a retransmission
	}
	// Only a timeout probe that found nothing lost teaches the stream to
	// tolerate more silence; a window or confirming probe cut no silence
	// short, whatever its answer says.
	if idle() > idleBefore && (rec == nil || rec.kind != timeoutProbe || ack.Nonce <= e.answered) {
		w.fail("rank %d learned idleness (%d -> %dns) from ack nonce %d, which answers no outstanding timeout probe (record %+v)",
			e.rank, idleBefore, idle(), ack.Nonce, rec)
	}
	if took := samples() - before; took != 0 {
		// Karn: a sample pairs one probe transmission with its own echo —
		// never a ping, an unknown nonce, or a probe sampled already.
		if took != 1 || rec == nil || rec.sampled || w.now <= rec.at {
			w.fail("rank %d took %d RTT sample(s) from ack nonce %d (probe record %+v)", e.rank, took, ack.Nonce, rec)
		}
		rec.sampled = true
	}
	// The ack answers a probe if it echoes one that is outstanding; an
	// older probe's answer is as stale as an unsolicited ack.
	probed := rec != nil && ack.Nonce > e.answered
	if probed {
		e.answered = ack.Nonce
		if ack.Nonce >= e.windowProbe {
			e.windowProbe = 0
		}
	}
	named := map[uint32]bool{}
	for _, p := range ack.Partials {
		named[p.Seq] = len(p.Missing) > 0
	}
	for _, r := range st.Resend {
		// The ack was written after the probe it answers left, not
		// necessarily later: fragments whose latest transmission reached
		// the device after that race it on the wire.
		if probed && e.lastTx[r.Seq] >= ack.Nonce {
			w.fail("rank %d resent seq %d on the answer to probe %d, which left before the message's latest transmission (after probe %d)",
				e.rank, r.Seq, ack.Nonce, e.lastTx[r.Seq])
		}
		e.lastTx[r.Seq] = e.issued
		if named[r.Seq] {
			continue // selective: the receiver named the missing fragments
		}
		if len(r.Frags) != e.nfrags[r.Seq] {
			w.fail("rank %d resent %d of seq %d's %d fragments unasked", e.rank, len(r.Frags), r.Seq, e.nfrags[r.Seq])
		}
		if !probed {
			w.fail("rank %d resent seq %d whole on an ack (nonce %d) that answers no outstanding probe", e.rank, r.Seq, ack.Nonce)
		}
	}
	w.apply(e, st, timeoutProbe)
}

// fire runs e's pending probe timer, advancing the clock to it if needed.
// Timers the driver replaced still fire, in time order around the live
// one, and must ask for nothing.
func (w *world) fire(e *end) {
	if e.timerAt == 0 {
		return
	}
	due := e.timerAt
	w.now = max(w.now, due)
	w.fireReplaced(e, due-1)
	e.timerAt = 0
	w.apply(e, e.d.OnTimer(w.now, 1-e.rank), timeoutProbe)
	w.fireReplaced(e, w.now)
}

// fireReplaced fires, at time t, e's replaced timers that are due by then.
func (w *world) fireReplaced(e *end, t int64) {
	keep := e.replaced[:0]
	for _, at := range e.replaced {
		if at > t {
			keep = append(keep, at)
		} else if st := e.d.OnTimer(t, 1-e.rank); st.Ctl != nil || st.Resend != nil || st.Arm != 0 || st.Err != nil {
			w.fail("rank %d: a replaced probe timer (due %dns) fired into %+v, want nothing", e.rank, at, st)
		}
	}
	e.replaced = keep
}

// drain delivers everything in flight, in order, until the wire is empty.
func (w *world) drain() {
	for len(w.wire) > 0 {
		fr := w.wire[0]
		w.wire = w.wire[1:]
		w.recv(fr)
	}
}

// earliest returns the end whose timer fires first (nil: none pending).
func (w *world) earliest() *end {
	var first *end
	for _, e := range w.ends {
		if e.timerAt != 0 && (first == nil || e.timerAt < first.timerAt) {
			first = e
		}
	}
	return first
}

// check holds after every action.
func (w *world) check() {
	floor := min(minRTO, w.opts.rto)
	for _, e := range w.ends {
		if n := e.d.InFlight(1 - e.rank); n > w.opts.window {
			w.fail("rank %d has %d messages in flight, window is %d", e.rank, n, w.opts.window)
		}
		if e.d.Err() != e.failure {
			w.fail("rank %d: Err() is %v, the failing Step reported %v: the error must appear once and stick",
				e.rank, e.d.Err(), e.failure)
		}
		// Credit is what the evidence shown bought, one spent per
		// confirmed message, never above one sighting's worth.
		if e.d.credit != e.credit || e.credit > w.budget() {
			w.fail("rank %d holds %d credit, the evidence it saw and the messages it confirmed leave %d (one sighting buys %d)",
				e.rank, e.d.credit, e.credit, w.budget())
		}
		sp := e.d.send[1-e.rank]
		if sp == nil {
			continue
		}
		for seq, om := range sp.ss.unacked {
			for _, f := range om.frags {
				if f.Repair {
					w.fail("rank %d: the window's copy of seq %d carries the repair flag: its next first transmission would lie", e.rank, seq)
				}
			}
		}
		// The stream's clock: the configured timeout until a round trip
		// was measured, then within [floor, configured] and never below
		// the fastest round trip seen (unless that exceeds the ceiling);
		// doubled by each timeout probe without progress, never lowered
		// while backed off, and back within bounds on progress.
		rto, probes, rtt := sp.ss.RTO(), sp.ss.probes, sp.ss.RTTSnapshot()
		switch {
		case probes == 0 && rtt.Samples == 0 && rto != w.opts.rto:
			w.fail("rank %d: RTO %dns before any round-trip sample, want the configured %dns", e.rank, rto, w.opts.rto)
		case probes == 0 && (rto < floor || rto > w.opts.rto):
			w.fail("rank %d: RTO %dns outside [%d, %d] with no back-off (estimator %+v)", e.rank, rto, floor, w.opts.rto, rtt)
		case probes == 0 && rto < min(int64(rtt.MinRTT), w.opts.rto):
			w.fail("rank %d: RTO %dns below the fastest round trip seen, %vns", e.rank, rto, rtt.MinRTT)
		case probes > 0 && e.prevProbes > 0 && probes >= e.prevProbes && rto < e.prevRTO:
			w.fail("rank %d: backed-off RTO fell from %dns to %dns without progress", e.rank, e.prevRTO, rto)
		case rto > w.opts.rto<<8:
			w.fail("rank %d: RTO %dns above the back-off cap %dns", e.rank, rto, w.opts.rto<<8)
		}
		e.prevProbes, e.prevRTO = probes, rto
	}
}

// run interprets prog, then closes losslessly and demands that every
// admitted message of a stream that did not fail was delivered exactly
// once and acknowledged.
func (w *world) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], int(prog[i+1])
		e := w.ends[arg&1]
		switch op % 8 {
		case 0, 1: // 1: the sender blocks if the window is full
			w.send(e, 1+(arg>>1)%3, arg&0x80 != 0, op%8 == 1)
		case 2, 3, 4:
			if len(w.wire) == 0 {
				break
			}
			k := arg % len(w.wire)
			fr := w.wire[k]
			if op%8 != 4 { // 4 duplicates: deliver a copy, leave the frame in flight
				w.wire = append(w.wire[:k], w.wire[k+1:]...)
			}
			if op%8 != 3 { // 3 drops
				w.recv(fr)
			}
		case 5:
			if first := w.earliest(); first != nil {
				w.fire(first)
			}
		case 6:
			w.now += int64(arg) * 100_000 // up to 25.5 ms; due timers fire late, as real ones may
			for first := w.earliest(); first != nil && first.timerAt <= w.now; first = w.earliest() {
				w.fire(first)
			}
		case 7:
			if arg&0x80 != 0 { // a repair-flagged fragment of somebody else's arrives
				e.d.LossSeen(w.now)
				w.evidence(e)
				break
			}
			probe, _ := e.d.Ping(1 - e.rank)
			w.ctl(e, probe, false)
		}
		w.check()
	}
	// MaxProbes counts probes since the last progress, so a sender whose
	// budget the lossy phase already ate into can still run out while the
	// frames that phase delayed drain: only a stream that enters the
	// closing phase with its whole budget must survive it.
	var excused [2]bool
	for r, e := range w.ends {
		sp := e.d.send[1-r]
		excused[r] = e.failure != nil || sp != nil && sp.ss.probes > 0
	}
	for steps := 0; ; steps++ {
		if steps > 100_000 {
			w.fail("no quiescence after %d lossless steps: eventual delivery does not hold", steps)
		}
		if len(w.wire) > 0 {
			fr := w.wire[0]
			w.wire = w.wire[1:]
			w.recv(fr)
		} else if first := w.earliest(); first != nil {
			w.fire(first)
		} else {
			break
		}
		w.check()
	}
	for r, e := range w.ends {
		if e.failure != nil {
			if !excused[r] {
				w.fail("rank %d: stream failed on a lossless channel: %v", r, e.failure)
			}
			continue
		}
		if n := e.d.InFlight(1 - r); n != 0 {
			w.fail("rank %d: %d messages still unacknowledged at quiescence", r, n)
		}
		if len(e.blocked) != 0 {
			w.fail("rank %d: %d senders still blocked on the window at quiescence", r, len(e.blocked))
		}
		for p := range e.admitted {
			if w.ends[1-r].delivered[p] != 1 {
				w.fail("rank %d's message %x was delivered %d times", r, p[:9], w.ends[1-r].delivered[p])
			}
		}
	}
}

// TestDriverModelSeeded runs the model over seeded random programs: a
// failure names the seed that replays it.
func TestDriverModelSeeded(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(prog)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { newWorld(t).run(prog) })
	}
}

// FuzzDriverInterleavings hands the model arbitrary programs; the seed
// corpus lives in testdata/fuzz/FuzzDriverInterleavings.
func FuzzDriverInterleavings(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 5, 0, 2, 0, 2, 0})              // one message, lost, probed back
	f.Add([]byte{0, 2, 0, 0, 3, 0, 2, 0, 6, 80, 2, 0, 2, 0}) // gap, volunteer ack, selective repair
	f.Add([]byte{7, 0x80, 0, 0, 3, 0, 2, 0, 2, 0, 2, 0})     // evidence; a confirmed message, lost, is back a round trip later
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			t.Skip()
		}
		newWorld(t).run(prog)
	})
}

// TestDriverFailsAfterMaxProbes: on a dead channel the sender probes
// exactly MaxProbes times with doubling gaps, then reports one sticky
// error and never probes again.
func TestDriverFailsAfterMaxProbes(t *testing.T) {
	w := newWorld(t)
	e := w.ends[0]
	w.send(e, 1, false, false)
	for i := 0; i < modelProbes+3 && e.timerAt != 0; i++ {
		w.wire = w.wire[:0] // nothing arrives
		w.fire(e)
		w.check()
	}
	if got := e.stats.ProbesSent.Load(); got != modelProbes {
		t.Fatalf("sent %d probes before failing, want %d", got, modelProbes)
	}
	if e.failure == nil || e.d.Err() != e.failure || e.stats.StreamFailures.Load() != 1 {
		t.Fatalf("want one sticky stream failure, got step error %v, Err() %v, %d failures",
			e.failure, e.d.Err(), e.stats.StreamFailures.Load())
	}
	if e.timerAt != 0 {
		t.Fatal("a failed stream re-armed its probe timer")
	}
}

// measure gives rank 0's stream towards rank 1 a round-trip sample of rtt
// nanoseconds: one message, delivered; its tail probed on timeout; the
// answer delayed by rtt.
func (w *world) measure(rtt int64) {
	a := w.ends[0]
	w.send(a, 1, false, false)
	w.drain()
	w.fire(a)
	w.now += rtt
	w.drain()
	if got := a.d.send[1].ss.RTTSnapshot(); got.Samples != 1 || int64(got.SRTT) != rtt {
		w.t.Fatalf("priming left the estimator at %+v, want one sample of %dns", got, rtt)
	}
	w.check()
}

// TestDriverPingDoesNotStarveRecoveryProbe is PR 7's regression at the
// level both transports now share: the failure detector sweeps every
// 20 ms, the stream probes after 25 ms of silence, and every ping is
// answered with an ordinary ack. If that ack (nonce pingNonce) counted
// as stream activity each sweep would re-arm the recovery probe without
// firing it, and a lost fragment would never be retransmitted. The same
// must hold once the stream probes on a clock it measured, against the
// detector's real cadence and against one just inside the measured
// timeout, where the two timers interact as 20 ms and 25 ms do.
func TestDriverPingDoesNotStarveRecoveryProbe(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rtt      int64 // 0: the stream keeps the configured timeout
		sweepPct int64 // sweep period in percent of the stream's RTO; 0: the detector's 20 ms
	}{
		{name: "configured"},
		{name: "adapted", rtt: 100_000},
		{name: "adapted/sweep-inside-the-measured-timeout", rtt: 100_000, sweepPct: 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			a, b := w.ends[0], w.ends[1]
			if tc.rtt > 0 {
				w.measure(tc.rtt)
			}
			w.send(a, 1, false, false)
			w.wire = w.wire[:0] // the one data fragment is lost
			sentAt, rto, want := w.now, a.d.send[1].ss.RTO(), len(b.delivered)+1
			if adapted := rto < RTO; adapted != (tc.rtt > 0) {
				t.Fatalf("stream RTO is %dns after a %dns round trip, configured %dns", rto, tc.rtt, int64(RTO))
			}
			sweep := int64(20_000_000)
			if tc.sweepPct > 0 {
				sweep = rto * tc.sweepPct / 100
			}
			for s := 0; s < 64 && len(b.delivered) < want; s++ {
				// Up to the next sweep: timers fire on time, frames arrive at once.
				next := sentAt + int64(s)*sweep
				for first := w.earliest(); first != nil && first.timerAt <= next; first = w.earliest() {
					w.fire(first)
					w.drain()
				}
				w.now = next
				probe, seen := a.d.Ping(1)
				w.ctl(a, probe, false)
				w.drain()
				if a.d.AcksSeen(1) <= seen {
					t.Fatalf("sweep %d: live peer's ping went unanswered", s)
				}
				w.check()
			}
			if len(b.delivered) != want {
				t.Fatal("message never delivered: ping acks starved the recovery probe")
			}
			if took := w.now - sentAt; took > 4*max(rto, sweep) {
				t.Fatalf("recovery took %d ns (RTO %d, sweep %d): probes postponed by ping acks", took, rto, sweep)
			}
			if got := a.stats.Retransmits.Load(); got != 1 {
				t.Fatalf("%d retransmits, want 1", got)
			}
		})
	}
}

// TestDriverWindowCreditNeedsNoTimer: a sender that finds its window full
// asks for credit at once, so on a lossless channel a busy stream makes
// progress with no timer ever firing — a stall costs a round trip, never
// a timeout. Each stall is counted once and costs exactly one probe,
// whose echo is a round-trip sample.
func TestDriverWindowCreditNeedsNoTimer(t *testing.T) {
	w := newWorld(t)
	a, b := w.ends[0], w.ends[1]
	const msgs = 10 * modelWindow
	for i := 0; i < msgs; i++ {
		w.send(a, 1+i%3, false, true)
		w.check()
		if len(a.blocked) > 0 {
			w.now += 50_000 // the round trip
			w.drain()
			w.check()
		}
		if len(a.blocked) > 0 {
			t.Fatalf("message %d: sender still blocked after a loss-free round trip with no timer fired: window credit waits for a timeout", i)
		}
	}
	w.drain()
	stalls, st := int64(msgs/modelWindow-1), a.stats.Snapshot()
	if len(b.delivered) != msgs || st.WindowStalls != stalls || st.ProbesSent != stalls || st.Retransmits != 0 {
		t.Fatalf("delivered %d of %d messages with %+v, want %d stalls at one probe each", len(b.delivered), msgs, st, stalls)
	}
	if got := a.d.send[1].ss.RTTSnapshot(); got.Samples != stalls || got.MinRTT != 50_000 {
		t.Fatalf("window probes left the estimator at %+v, want %d samples of 50000ns", got, stalls)
	}
}

// TestDriverWindowProbesSpendNoBudget: MaxProbes bounds how long a stream
// tolerates silence. A window probe is answered, so however many stalls
// find nothing acknowledged — here every data frame is lost and every
// control frame arrives — they alone never fail the stream nor back its
// timeout off.
func TestDriverWindowProbesSpendNoBudget(t *testing.T) {
	w := newWorld(t)
	a := w.ends[0]
	for i := 0; i < modelWindow; i++ {
		w.send(a, 1, false, false)
	}
	w.wire = w.wire[:0]
	for i := 0; i < 3*modelProbes; i++ {
		w.apply(a, a.d.Stall(w.now, 1), windowProbe)
		if i == 0 {
			w.apply(a, a.d.Stall(w.now, 1), windowProbe) // a second blocked sender shares the outstanding probe
		}
		w.now += 50_000
		for len(w.wire) > 0 {
			fr := w.wire[0]
			w.wire = w.wire[1:]
			if fr.f.Ctl {
				w.recv(fr)
			}
		}
		w.check()
	}
	ss := a.d.send[1].ss
	if a.failure != nil || ss.probes != 0 || ss.RTO() > RTO {
		t.Fatalf("window probes spent the timeout budget: failure %v, %d probes counted, RTO %dns", a.failure, ss.probes, ss.RTO())
	}
	if got := a.stats.ProbesSent.Load(); got != 3*modelProbes {
		t.Fatalf("%d probes for %d answered stalls", got, 3*modelProbes)
	}
}

// TestDriverConfirmedSendIsRepairedInARoundTrip: once the endpoint has
// seen the network lose a frame, a lost message — a scout, say — is back
// on the wire one round trip after it was sent, on the word of the probe
// that went out right behind it, flagged as the retransmission it is; no
// timer fires. Evidence buys one configured timeout's worth of
// floor-length round trips, however often it is seen, and once that is
// spent without more of it the sender is as silent as it was before.
func TestDriverConfirmedSendIsRepairedInARoundTrip(t *testing.T) {
	w := newWorld(t)
	a, b := w.ends[0], w.ends[1]
	w.send(a, 1, false, false)
	if len(w.wire) != 1 {
		t.Fatalf("without evidence a send put %d frames on the wire, want the message alone", len(w.wire))
	}
	w.drain()
	for i := 0; i < 3; i++ {
		a.d.LossSeen(w.now) // a repair-flagged fragment of somebody else's multicast, three times over
		w.evidence(a)
	}
	w.check()
	sentAt := w.now
	w.send(a, 1, false, false)
	w.wire = w.wire[1:] // the message is lost, the probe behind it is not
	w.now += 50_000
	w.drain()
	w.check()
	if len(b.delivered) != 2 || a.stats.Retransmits.Load() != 1 || a.d.InFlight(1) != 1 {
		t.Fatalf("a round trip after a confirmed send was lost: %d of 2 messages delivered, %d retransmits, %d still in flight (the first message's tail)",
			len(b.delivered), a.stats.Retransmits.Load(), a.d.InFlight(1))
	}
	if a.timerAt == 0 || a.timerAt <= w.now || w.now-sentAt >= RTO {
		t.Fatalf("the repair waited for the probe timer (now %d, sent %d, timer due %d)", w.now, sentAt, a.timerAt)
	}
	if b.credit != w.budget() {
		t.Fatal("the retransmission did not tell its receiver that the network loses frames")
	}
	// The ack that called for the retransmission was evidence too and made
	// the credit whole again: one message each, then silence.
	for i := 0; a.credit > 0; i++ {
		if i > w.budget() {
			t.Fatalf("credit never ran out: %d left after %d confirmed messages", a.credit, i)
		}
		w.send(a, 1, false, false)
		w.now += 50_000
		w.drain()
		w.check()
	}
	before := a.stats.Snapshot()
	w.send(a, 1, false, false)
	w.check()
	if got := a.stats.Snapshot(); got.ProbesSent != before.ProbesSent || got.ConfirmsSent != int64(1+w.budget()) {
		t.Fatalf("with the credit spent a send still probed: %+v, then %+v (one sighting buys %d)", before, got, w.budget())
	}
}

// TestDriverConfirmingAnswerTeachesNoIdleness: with several confirming
// probes in flight, the answer to an earlier one — which finds everything
// it covered delivered, as a needless timeout probe's does — must not
// double the silence the stream tolerates. Comparing the echoed nonce
// against the last window probe's (the rule before there were confirming
// probes) takes it for exactly that.
func TestDriverConfirmingAnswerTeachesNoIdleness(t *testing.T) {
	w := newWorld(t)
	a := w.ends[0]
	w.measure(100_000)
	ss := a.d.send[1].ss
	idle, rto := ss.idle, ss.RTO()
	a.d.LossSeen(w.now)
	w.evidence(a)
	for i := 0; i < 3; i++ {
		w.send(a, 1, false, false)
	}
	w.now += 100_000
	w.drain()
	w.check()
	if ss.idle != idle || ss.RTO() != rto || a.stats.ConfirmsSent.Load() != 3 {
		t.Fatalf("three answered confirming probes (%d counted) moved the stream's clock: idle %d -> %dns, RTO %d -> %dns",
			a.stats.ConfirmsSent.Load(), idle, ss.idle, rto, ss.RTO())
	}
}

// TestDriverOutlastsTheFailureDetector: a stream gives up on a silent
// peer (StreamFailures, which poisons the endpoint) only long after the
// failure detector has declared the peer dead and fenced it (a typed
// error, survivors carry on) — whatever the estimator holds, because the
// back-off cap stays tied to the constant RTO, not the measured
// one. This is where the two timers interact; PR 7's bug lived here.
func TestDriverOutlastsTheFailureDetector(t *testing.T) {
	fd := mpi.FailureOptions{}.Fill()
	declareDead := fd.Suspicion + mpi.PingsToDeclareDead*fd.PingTimeout
	for _, rtt := range []int64{0, 1, 10_000, 1_000_000, 20_000_000} {
		w := newWorldWith(t, Options{})
		a := w.ends[0]
		if rtt > 0 {
			w.measure(rtt)
		}
		w.send(a, 1, false, false)
		sentAt := w.now
		for a.failure == nil && a.timerAt != 0 {
			w.wire = w.wire[:0] // the peer is silent
			w.fire(a)
			w.check()
		}
		if a.failure == nil {
			t.Fatalf("rtt %dns: a silent peer never failed the stream", rtt)
		}
		if took := w.now - sentAt; took < 10*declareDead {
			t.Errorf("rtt %dns: stream failed %dns after the send, under 10x the detector's declare-dead time of %dns", rtt, took, declareDead)
		}
	}
}

// TestDriverIgnoresSourcesOutsideTheWorld: a frame's source rank comes
// off the wire, so it is validated before any per-peer table is indexed.
func TestDriverIgnoresSourcesOutsideTheWorld(t *testing.T) {
	w := newWorld(t)
	d := w.ends[0].d
	for _, src := range []int{-1, -1 << 40, 2, 1 << 40} {
		for _, body := range [][]byte{EncodeProbe(7), EncodeAck(Ack{Cum: 3, Nonce: 7}, modelFrag)} {
			if st := d.OnCtl(w.now, src, body); st.Ctl != nil || st.Resend != nil || st.Arm != 0 || st.Acked || st.Freed || st.Err != nil {
				t.Errorf("OnCtl from rank %d produced %+v, want nothing", src, st)
			}
		}
		for _, f := range transport.Split(transport.Message{Kind: transport.P2P, Src: src, Reliable: true, Payload: []byte("x")}, 1, modelFrag) {
			f.Stream = 1
			if a := d.Receive(w.now, f, true); a.Done || a.Acks != 0 || a.Throttled != nil {
				t.Errorf("Receive took a fragment from rank %d: %+v", src, a)
			}
		}
		d.FailPeer(src)
		if d.PeerFailed(src) {
			t.Errorf("PeerFailed(%d) true for a rank outside the world", src)
		}
	}
	if got := w.ends[0].stats.Snapshot(); got != (Stats{}) {
		t.Errorf("frames from outside the world moved the counters: %+v", got)
	}
}

// TestDriverStopAndFailPeerSilenceTheTimer: a probe timer that fires
// after the endpoint stopped, or after the failure detector declared the
// peer dead, asks for nothing — no probe toward a corpse, no re-arm.
func TestDriverStopAndFailPeerSilenceTheTimer(t *testing.T) {
	for name, silence := range map[string]func(d *Driver){
		"Stop":     func(d *Driver) { d.Stop() },
		"FailPeer": func(d *Driver) { d.FailPeer(1) },
	} {
		w := newWorld(t)
		e := w.ends[0]
		w.send(e, 1, false, false)
		silence(e.d)
		w.wire = w.wire[:0]
		w.fire(e)
		if len(w.wire) != 0 || e.timerAt != 0 || e.stats.ProbesSent.Load() != 0 {
			t.Errorf("after %s the timer still produced %d frame(s), re-armed=%v", name, len(w.wire), e.timerAt != 0)
		}
	}
}
