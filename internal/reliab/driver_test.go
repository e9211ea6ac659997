package reliab

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/transport"
)

// The model: two drivers joined by an in-memory channel on a fake clock.
// A program — fuzz bytes, or a seeded random string of them — admits
// messages, delivers, drops, duplicates and reorders the frames in
// flight, pings, and lets time pass; the harness plays the transport
// (it carries out every Step exactly as simnet and udpnet do) and checks
// the stream's invariants after every action. A lossless closing phase
// then proves eventual delivery.

const (
	modelWindow = 4
	modelRTO    = 25_000_000
	modelProbes = 8
	modelFrag   = 64 // bytes per fragment: room for a dozen sacks in an ack
)

type frame struct {
	to int
	f  transport.Fragment
}

type probeRec struct {
	at      int64  // when the probe went out
	horizon uint32 // highest sequence number handed to the device by then
	sampled bool
}

// end is one rank: a driver plus the transport state the harness keeps
// for it.
type end struct {
	rank      int
	d         *Driver
	reasm     transport.Reassembler
	stats     StatCounters
	timerAt   int64 // pending probe timer's fire time (0: none); the world has one peer
	msgID     uint64
	admitted  map[string]bool // payloads handed to Begin
	delivered map[string]int  // payloads handed up, with multiplicity
	nfrags    map[uint32]int  // admitted message's fragment count by sequence number
	sentHigh  uint32          // highest sequence number passed to Sent
	probes    map[uint32]*probeRec
	silent    int   // probes sent since the last ack was consumed
	lastVol   int64 // time of the last volunteer ack (-1: none yet)
	failure   error // the error of the one failing Step
}

type world struct {
	t    testing.TB
	now  int64
	ends [2]*end
	wire []frame
}

func newWorld(t testing.TB) *world {
	w := &world{t: t, now: 1} // the clock's zero value means "no timestamp"
	opts := Options{Window: modelWindow, RTO: modelRTO, MaxProbes: modelProbes}.Fill()
	for r := range w.ends {
		e := &end{rank: r, admitted: map[string]bool{}, delivered: map[string]int{}, nfrags: map[uint32]int{},
			probes: map[uint32]*probeRec{}, lastVol: -1}
		e.d = NewDriver(Host{Rank: r, Size: 2, Options: opts, FragPayload: modelFrag, Missing: e.reasm.Missing, Stats: &e.stats})
		w.ends[r] = e
	}
	return w
}

func (w *world) fail(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("t=%dns: %s", w.now, fmt.Sprintf(format, args...))
}

// ctl puts a control body from e on the wire; volunteer marks the acks
// the quarter-RTO throttle governs.
func (w *world) ctl(e *end, body []byte, volunteer bool) {
	if body == nil {
		return
	}
	if volunteer {
		if e.lastVol >= 0 && w.now-e.lastVol < modelRTO/4 {
			w.fail("rank %d volunteered two acks %dns apart (throttle is %dns)", e.rank, w.now-e.lastVol, modelRTO/4)
		}
		e.lastVol = w.now
	}
	e.msgID++
	w.wire = append(w.wire, frame{to: 1 - e.rank, f: CtlFrame(e.rank, e.msgID, body)})
}

// apply carries out a Step in the documented order.
func (w *world) apply(e *end, st Step) {
	if st.Err != nil {
		if e.failure != nil {
			w.fail("rank %d: stream failure reported twice", e.rank)
		}
		e.failure = st.Err
	}
	if st.Ctl != nil {
		if a, probe, _ := DecodeCtl(st.Ctl); probe {
			e.probes[a.Nonce] = &probeRec{at: w.now, horizon: e.sentHigh}
			if e.silent++; e.silent > modelProbes {
				w.fail("rank %d sent %d probes with no ack in between, MaxProbes is %d", e.rank, e.silent, modelProbes)
			}
		}
		w.ctl(e, st.Ctl, false)
	}
	for _, r := range st.Resend {
		for _, f := range r.Frags {
			w.wire = append(w.wire, frame{to: 1 - e.rank, f: f})
		}
	}
	if st.Arm > 0 {
		if e.timerAt != 0 {
			w.fail("rank %d armed a second probe timer while one is pending", e.rank)
		}
		e.timerAt = w.now + st.Arm
	}
}

// send admits one message of nfrags fragments from e, if the window has
// room; a reliable one is acknowledged eagerly, like modeled TCP.
func (w *world) send(e *end, nfrags int, reliable bool) {
	peer := 1 - e.rank
	if e.d.Err() != nil || e.d.Full(peer) {
		return
	}
	payload := make([]byte, (nfrags-1)*modelFrag+9)
	payload[0] = byte(e.rank)
	binary.BigEndian.PutUint64(payload[1:], e.msgID)
	e.msgID++
	frags, seq := e.d.Begin(peer, transport.Message{Class: transport.ClassData, Reliable: reliable, Payload: payload}, e.msgID)
	if len(frags) != nfrags {
		w.fail("split %d bytes into %d fragments, want %d", len(payload), len(frags), nfrags)
	}
	e.admitted[string(payload)] = true
	e.nfrags[seq] = nfrags
	for _, f := range frags {
		w.wire = append(w.wire, frame{to: peer, f: f})
	}
	e.sentHigh = seq
	w.apply(e, e.d.Sent(w.now, peer, seq))
}

// recv plays the transport's receive path for one frame arriving at its
// destination.
func (w *world) recv(fr frame) {
	e, src, f := w.ends[fr.to], fr.f.Msg.Src, fr.f
	if f.Ctl {
		w.onCtl(e, src, f.Msg.Payload)
		return
	}
	fresh, ack := e.d.Fresh(w.now, src, f.Stream, f.MsgID)
	if !fresh {
		w.ctl(e, ack, true)
		return
	}
	m, done, err := e.reasm.Add(f)
	if err != nil {
		w.fail("reassembler rejected a stream fragment: %v", err)
	}
	if done {
		e.d.Deliver(src, f.Stream)
		e.delivered[string(m.Payload)]++
		if !w.ends[src].admitted[string(m.Payload)] {
			w.fail("rank %d received a message rank %d never sent", e.rank, src)
		}
		if n := e.delivered[string(m.Payload)]; n != 1 {
			w.fail("rank %d received stream message seq %d %d times", e.rank, f.Stream, n)
		}
		if m.Reliable {
			w.ctl(e, e.d.EagerAck(src), false)
		}
	}
	w.ctl(e, e.d.Volunteer(w.now, src), true)
}

// onCtl feeds a control body to e's driver and checks what the driver
// concluded from it: Karn's rule on the RTT sample, and that a message
// is resent whole only on a probed ack's silence about it.
func (w *world) onCtl(e *end, src int, body []byte) {
	samples := func() int64 {
		if sp := e.d.send[src]; sp != nil {
			return sp.ss.RTTSnapshot().Samples
		}
		return 0
	}
	before := samples()
	st := e.d.OnCtl(w.now, src, body)
	ack, probe, err := DecodeCtl(body)
	if err != nil || probe {
		w.apply(e, st)
		return
	}
	e.silent = 0
	rec := e.probes[ack.Nonce]
	if took := samples() - before; took != 0 {
		// Karn: a sample pairs one probe transmission with its own echo —
		// never a ping, an unknown nonce, or a probe sampled already.
		if took != 1 || rec == nil || rec.sampled || w.now <= rec.at {
			w.fail("rank %d took %d RTT sample(s) from ack nonce %d (probe record %+v)", e.rank, took, ack.Nonce, rec)
		}
		rec.sampled = true
	}
	named := map[uint32]bool{}
	for _, p := range ack.Partials {
		named[p.Seq] = len(p.Missing) > 0
	}
	for _, r := range st.Resend {
		if named[r.Seq] {
			continue // selective: the receiver named the missing fragments
		}
		if len(r.Frags) != e.nfrags[r.Seq] {
			w.fail("rank %d resent %d of seq %d's %d fragments unasked", e.rank, len(r.Frags), r.Seq, e.nfrags[r.Seq])
		}
		if rec == nil || r.Seq > rec.horizon {
			w.fail("rank %d resent seq %d whole on an ack (nonce %d) that answers no probe covering it", e.rank, r.Seq, ack.Nonce)
		}
	}
	w.apply(e, st)
}

// fire runs e's pending probe timer, advancing the clock to it if needed.
func (w *world) fire(e *end) {
	if e.timerAt == 0 {
		return
	}
	if e.timerAt > w.now {
		w.now = e.timerAt
	}
	e.timerAt = 0
	w.apply(e, e.d.OnTimer(w.now, 1-e.rank))
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
	for _, e := range w.ends {
		if n := e.d.InFlight(1 - e.rank); n > modelWindow {
			w.fail("rank %d has %d messages in flight, window is %d", e.rank, n, modelWindow)
		}
		if e.d.Err() != e.failure {
			w.fail("rank %d: Err() is %v, the failing Step reported %v: the error must appear once and stick",
				e.rank, e.d.Err(), e.failure)
		}
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
		case 0, 1:
			w.send(e, 1+(arg>>1)%3, arg&0x80 != 0)
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
	w.send(e, 1, false)
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

// TestDriverPingDoesNotStarveRecoveryProbe is PR 7's regression at the
// level both transports now share: the failure detector sweeps every
// 20 ms, the stream probes after 25 ms of silence, and every ping is
// answered with an ordinary ack. If that ack (nonce pingNonce) counted
// as stream activity each sweep would re-arm the recovery probe without
// firing it, and a lost fragment would never be retransmitted.
func TestDriverPingDoesNotStarveRecoveryProbe(t *testing.T) {
	const sweep = 20_000_000
	w := newWorld(t)
	a, b := w.ends[0], w.ends[1]
	w.send(a, 1, false)
	w.wire = w.wire[:0] // the one data fragment is lost
	sentAt := w.now
	for s := 0; s < 64 && len(b.delivered) == 0; s++ {
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
	if len(b.delivered) != 1 {
		t.Fatal("message never delivered: ping acks starved the recovery probe")
	}
	if took := w.now - sentAt; took > 4*modelRTO {
		t.Fatalf("recovery took %d ns (> 4 RTOs): probes postponed by ping acks", took)
	}
	if got := a.stats.Retransmits.Load(); got != 1 {
		t.Fatalf("%d retransmits, want 1", got)
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
		if fresh, ack := d.Fresh(w.now, src, 1, 1); fresh || ack != nil {
			t.Errorf("Fresh admitted a fragment from rank %d", src)
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
		w.send(e, 1, false)
		silence(e.d)
		w.wire = w.wire[:0]
		w.fire(e)
		if len(w.wire) != 0 || e.timerAt != 0 || e.stats.ProbesSent.Load() != 0 {
			t.Errorf("after %s the timer still produced %d frame(s), re-armed=%v", name, len(w.wire), e.timerAt != 0)
		}
	}
}
