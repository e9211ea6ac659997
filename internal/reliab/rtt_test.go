package reliab

import (
	"math"
	"sync"
	"testing"

	"repro/internal/transport"
)

func TestRTTEstimator(t *testing.T) {
	var r RTT
	r.Observe(1_000_000) // 1ms
	s := r.Snapshot()
	if s.SRTT != 1e6 || s.RTTVar != 5e5 || s.MinRTT != 1e6 || s.Samples != 1 {
		t.Fatalf("first sample: %+v", s)
	}
	if s.QueueDelay != 0 || s.Gradient != 0 {
		t.Fatalf("first sample must carry no queue/gradient signal: %+v", s)
	}
	// A steady climb (queues building) drives srtt up, keeps min at the
	// floor, and turns the gradient positive.
	for i := 1; i <= 20; i++ {
		r.Observe(1_000_000 + int64(i)*100_000)
	}
	s = r.Snapshot()
	if s.MinRTT != 1e6 {
		t.Fatalf("min must hold the floor: %+v", s)
	}
	if s.SRTT <= 1e6 || s.QueueDelay <= 0 {
		t.Fatalf("climbing samples must raise srtt above the floor: %+v", s)
	}
	if s.Gradient <= 0 {
		t.Fatalf("climbing samples must turn the gradient positive: %+v", s)
	}
	up := s.Gradient
	// A steady fall (queues draining) flips the gradient negative.
	for i := 20; i >= 1; i-- {
		r.Observe(1_000_000 + int64(i)*50_000)
	}
	s = r.Snapshot()
	if s.Gradient >= up {
		t.Fatalf("falling samples must pull the gradient down: %v -> %+v", up, s)
	}
	// Jacobson gains: one sample above a converged srtt moves it by 1/8
	// of the error.
	var j RTT
	j.Observe(1000)
	j.Observe(1000 + 800)
	if got := j.Snapshot().SRTT; math.Abs(got-1100) > 1e-9 {
		t.Fatalf("srtt after +800 error = %v, want 1100 (1/8 gain)", got)
	}
}

// TestProbeAckRTTSample pins the sampling path: OnProbeAt records the
// transmit time, HandleAckAt matches the echoed nonce and returns the
// round trip, and unsolicited or unknown-nonce acks yield no sample.
func TestProbeAckRTTSample(t *testing.T) {
	o := Options{}.Fill()
	s := NewSendStream(o)
	frag := []transport.Fragment{{}}
	seq := s.Begin(1, frag)
	s.MarkSent(seq)

	nonce, ok := s.OnProbeAt(10_000)
	if !ok {
		t.Fatal("probe refused")
	}
	// An unsolicited ack (nonce 0) must not sample.
	if _, _, rtt := s.HandleAckAt(11_000, Ack{Cum: 0, Nonce: 0}); rtt != 0 {
		t.Fatalf("unsolicited ack produced rtt %d", rtt)
	}
	// The echoed nonce samples the round trip and retires the probe.
	_, _, rtt := s.HandleAckAt(14_000, Ack{Cum: seq, Nonce: nonce})
	if rtt != 4_000 {
		t.Fatalf("rtt = %d, want 4000", rtt)
	}
	snap := s.RTTSnapshot()
	if snap.Samples != 1 || snap.SRTT != 4000 {
		t.Fatalf("estimator after one sample: %+v", snap)
	}
	// A stale duplicate of the same nonce must not sample again.
	if _, _, rtt := s.HandleAckAt(20_000, Ack{Cum: seq, Nonce: nonce}); rtt != 0 {
		t.Fatalf("duplicate ack produced rtt %d", rtt)
	}
	// A ping-style nonce the send stream never issued yields no sample
	// (the failure detector's liveness probes use a reserved nonce that
	// is never recorded as sent).
	if _, _, rtt := s.HandleAckAt(30_000, Ack{Nonce: 0xFFFFFFFF}); rtt != 0 {
		t.Fatalf("foreign nonce produced rtt %d", rtt)
	}
}

// TestAnsweredProbeRetiresTimestamps pins cleanup: an ack answering a
// newer probe retires every older probe's record, so the set of probes
// sent cannot grow without bound.
func TestAnsweredProbeRetiresTimestamps(t *testing.T) {
	o := Options{}.Fill()
	s := NewSendStream(o)
	seq := s.Begin(1, []transport.Fragment{{}})
	s.MarkSent(seq)
	var last uint32
	for i := 0; i < 5; i++ {
		n, ok := s.OnProbeAt(int64(1000 + i))
		if !ok {
			t.Fatal("probe refused")
		}
		last = n
	}
	if len(s.sent) != 5 {
		t.Fatalf("%d probes recorded as sent, want 5", len(s.sent))
	}
	s.HandleAckAt(9_999, Ack{Cum: seq, Nonce: last})
	if len(s.sent) != 0 || s.answered != last {
		t.Fatalf("answered probe must retire older timestamps: sent=%d answered=%d",
			len(s.sent), s.answered)
	}
}

// TestZeroTimestampRecordsNoRTTSample pins the clock's zero value: a
// probe sent at now=0 records no transmit time, so its ack — whenever it
// arrives — yields no round-trip sample.
func TestZeroTimestampRecordsNoRTTSample(t *testing.T) {
	o := Options{}.Fill()
	s := NewSendStream(o)
	seq := s.Begin(1, []transport.Fragment{{}})
	s.MarkSent(seq)
	nonce, ok := s.OnProbeAt(0)
	if !ok {
		t.Fatal("probe refused")
	}
	if s.sent[nonce].at != 0 {
		t.Fatal("OnProbeAt(0) must not record a timestamp")
	}
	if _, freed, _ := s.HandleAckAt(1_000_000, Ack{Cum: seq, Nonce: nonce}); !freed {
		t.Fatal("ack must free the window")
	}
	if snap := s.RTTSnapshot(); snap.Samples != 0 {
		t.Fatalf("a zero probe timestamp must not sample: %+v", snap)
	}
}

// TestStatCountersRace hammers one StatCounters from writer goroutines
// while readers snapshot — the -race pin for the racy int64 reads the
// plain Stats struct allowed.
func TestStatCountersRace(t *testing.T) {
	var c StatCounters
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.MsgsStreamed.Add(1)
				c.Retransmits.Add(2)
				c.ProbesSent.Add(1)
				c.AcksSent.Add(1)
				c.AcksReceived.Add(1)
				c.DupFragments.Add(1)
				c.WindowStalls.Add(1)
				c.PauseStalls.Add(1)
				c.StreamFailures.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = c.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	got := c.Snapshot()
	if got.MsgsStreamed != 20000 || got.Retransmits != 40000 {
		t.Fatalf("final snapshot %+v", got)
	}
}

// TestMeasuredRTO pins the clock a stream probes on: the configured
// timeout until a round trip is measured, then srtt + 4·rttvar held
// between the floor and the configured value — and what the answers to
// its probes teach it. A timeout probe that finds everything delivered
// was needless (the silence was the stream's own cadence) and doubles the
// silence tolerated, up to the ceiling; an ack that calls for a
// retransmission returns the timeout to the measured value; a window
// probe, sent for credit and not for silence, teaches nothing.
func TestMeasuredRTO(t *testing.T) {
	o := Options{}.Fill()
	s := NewSendStream(o)
	now := int64(1)
	send := func() uint32 {
		seq := s.Begin(uint64(now), frags(uint64(now), 1))
		s.MarkSent(seq)
		return seq
	}
	// exchange answers a probe rtt later with an ack that acknowledges up
	// to cum.
	exchange := func(nonce uint32, rtt int64, cum uint32) []Resend {
		now += rtt
		resend, _, _ := s.HandleAckAt(now, Ack{Cum: cum, Nonce: nonce})
		return resend
	}
	if s.RTO() != RTO {
		t.Fatalf("RTO before any sample = %d, want the configured %d", s.RTO(), RTO)
	}
	seq := send()
	nonce, _ := s.OnProbeAt(now)
	exchange(nonce, 100_000, seq)
	// srtt + 4·rttvar = 100 µs + 4·50 µs is under the floor; the needless
	// probe doubled the floor.
	for want := int64(2 * minRTO); ; want = min(2*want, RTO) {
		if s.RTO() != want {
			t.Fatalf("RTO after needless probes = %d, want %d", s.RTO(), want)
		}
		if want == RTO {
			break
		}
		seq = send()
		nonce, _ = s.OnProbeAt(now)
		exchange(nonce, 100_000, seq)
	}
	// A probe that uncovers a loss: back to what was measured.
	seq = send()
	nonce, _ = s.OnProbeAt(now)
	if resend := exchange(nonce, 100_000, seq-1); len(resend) != 1 {
		t.Fatalf("probed ack omitting seq %d resent %v", seq, resend)
	}
	exchange(0, 100_000, seq) // the repair arrives: progress ends the back-off
	if s.RTO() != minRTO {
		t.Fatalf("RTO after a loss = %d, want the measured value at its floor %d", s.RTO(), int64(minRTO))
	}
	// Window probes teach nothing, whatever they find.
	seq = send()
	nonce, _ = s.Solicit(now)
	exchange(nonce, 100_000, seq)
	if s.RTO() != minRTO {
		t.Fatalf("RTO after an answered window probe = %d, want %d", s.RTO(), int64(minRTO))
	}
	// A slow path is clamped at the configured value.
	for i := 0; i < 8; i++ {
		seq = send()
		nonce, _ = s.Solicit(now)
		exchange(nonce, 2*RTO, seq)
	}
	if s.RTO() != RTO {
		t.Fatalf("RTO on a path slower than the configured timeout = %d, want the ceiling %d", s.RTO(), RTO)
	}
}
