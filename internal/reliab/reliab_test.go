package reliab

import (
	"reflect"
	"testing"

	"repro/internal/transport"
)

func frags(msgID uint64, n int) []transport.Fragment {
	out := make([]transport.Fragment, n)
	for i := range out {
		out[i] = transport.Fragment{
			Msg:   transport.Message{Kind: transport.P2P, Payload: []byte{byte(i)}},
			MsgID: msgID, Index: uint16(i), Count: uint16(n), TotalLen: uint32(n), Offset: uint32(i),
		}
	}
	return out
}

func TestSendWindowAndCumAck(t *testing.T) {
	o := Options{window: 2}.Fill()
	s := NewSendStream(o)
	s.Begin(1, frags(1, 1))
	seq2 := s.Begin(2, frags(2, 1))
	if seq2 != 2 {
		t.Fatalf("second seq = %d, want 2", seq2)
	}
	if !s.Full() {
		t.Fatal("window of 2 should be full after two sends")
	}
	resend, freed, _ := s.HandleAckAt(0, Ack{Cum: 2})
	if len(resend) != 0 || !freed {
		t.Fatalf("cumulative ack: resend=%v freed=%v", resend, freed)
	}
	if s.Full() || s.InFlight() != 0 {
		t.Fatalf("window not drained: in flight %d", s.InFlight())
	}
}

func TestSelectiveRetransmitFromPartial(t *testing.T) {
	s := NewSendStream(Options{}.Fill())
	s.MarkSent(s.Begin(7, frags(7, 5)))
	resend, _, _ := s.HandleAckAt(0, Ack{Cum: 0, Partials: []Partial{{Seq: 1, Missing: []int{1, 3}}}})
	if len(resend) != 1 {
		t.Fatalf("resend count = %d, want 1", len(resend))
	}
	if got := resend[0]; got.Seq != 1 || len(got.Frags) != 2 ||
		got.Frags[0].Index != 1 || got.Frags[1].Index != 3 {
		t.Fatalf("selective resend named wrong fragments: %+v", got)
	}
}

// TestRetransmitOnlyOnAnAckThatCanKnow: fragments are resent only on the
// word of an ack that can have been written after their latest
// transmission reached the device. A message still being written (Begin
// done, MarkSent pending), one that left after the probe being answered,
// and one already resent on an earlier probe's answer all have fragments
// in flight beside the ack, not lost — whether the ack names missing
// fragments or holds nothing of the message.
func TestRetransmitOnlyOnAnAckThatCanKnow(t *testing.T) {
	seqsOf := func(resend []Resend) (out []uint32) {
		for _, r := range resend {
			out = append(out, r.Seq)
		}
		return out
	}
	s := NewSendStream(Options{}.Fill())
	s.MarkSent(s.Begin(1, frags(1, 3)))
	first, _ := s.OnProbeAt(0)
	second, _ := s.OnProbeAt(0)
	late := s.Begin(2, frags(2, 3)) // admitted after the probes
	writing := s.Begin(3, frags(3, 3))
	s.MarkSent(late)
	partials := []Partial{{Seq: 1, Missing: []int{2}}, {Seq: late, Missing: []int{1, 2}}, {Seq: writing, Missing: []int{2}}}

	resend, _, _ := s.HandleAckAt(0, Ack{Nonce: first, Partials: partials})
	if got := seqsOf(resend); !reflect.DeepEqual(got, []uint32{1}) {
		t.Fatalf("first probe's answer resent %v, want [1]: seq %d left after the probe, seq %d is still being written", got, late, writing)
	}
	if resend, _, _ = s.HandleAckAt(0, Ack{Nonce: second}); len(resend) != 0 {
		t.Fatalf("second probe's answer resent %v: it was solicited before seq 1 was resent and cannot know", seqsOf(resend))
	}
	third, _ := s.OnProbeAt(0)
	resend, _, _ = s.HandleAckAt(0, Ack{Nonce: third, Partials: partials[1:]})
	if got := seqsOf(resend); !reflect.DeepEqual(got, []uint32{1, late}) || len(resend[0].Frags) != 3 || len(resend[1].Frags) != 2 {
		t.Fatalf("third probe's answer resent %v, want seq 1 whole and seq %d's two fragments", got, late)
	}
	// An unsolicited ack speaks for whatever is at the device by now.
	s.MarkSent(writing)
	resend, _, _ = s.HandleAckAt(0, Ack{Partials: partials[2:]})
	if got := seqsOf(resend); !reflect.DeepEqual(got, []uint32{writing}) {
		t.Fatalf("unsolicited ack resent %v, want [%d]", got, writing)
	}
}

func TestFullResendOnlyWhenProbed(t *testing.T) {
	s := NewSendStream(Options{}.Fill())
	s.Begin(9, frags(9, 3))
	// Unsolicited ack that omits seq 1: frames may still be in flight.
	if resend, _, _ := s.HandleAckAt(0, Ack{Cum: 0}); len(resend) != 0 {
		t.Fatalf("unsolicited ack triggered resend: %v", resend)
	}
	// An ack claiming an unknown probe nonce must not resend (stale ack).
	if resend, _, _ := s.HandleAckAt(0, Ack{Cum: 0, Nonce: 99}); len(resend) != 0 {
		t.Fatalf("ack with unknown nonce triggered resend: %v", resend)
	}
	// A message begun but not yet handed to the device (the host send
	// cost is still being charged) is not probeable.
	s.MarkSent(0)
	if n, ok := s.OnProbeAt(0); !ok {
		t.Fatalf("OnProbe = (%d, %v)", n, ok)
	} else if resend, _, _ := s.HandleAckAt(0, Ack{Cum: 0, Nonce: n}); len(resend) != 0 {
		t.Fatalf("probe before MarkSent triggered resend: %v", resend)
	}
	s.MarkSent(1)
	nonce, ok := s.OnProbeAt(0)
	if !ok || nonce == 0 {
		t.Fatalf("OnProbe = (%d, %v)", nonce, ok)
	}
	// Message sent after the probe: the answering ack cannot know it.
	seq2 := s.Begin(10, frags(10, 2))
	s.MarkSent(seq2)
	resend, _, _ := s.HandleAckAt(0, Ack{Cum: 0, Nonce: nonce})
	if len(resend) != 1 || resend[0].Seq != 1 || len(resend[0].Frags) != 3 {
		t.Fatalf("probed ack resend = %v, want full resend of seq 1 only", resend)
	}
}

func TestProbeBackoffAndFailure(t *testing.T) {
	o := Options{rto: 100, maxProbes: 3}.Fill()
	s := NewSendStream(o)
	s.Begin(1, frags(1, 1))
	if !s.NeedProbe() {
		t.Fatal("unacked message should need a probe")
	}
	rto0 := s.RTO()
	for i := 0; i < 3; i++ {
		if _, ok := s.OnProbeAt(0); !ok {
			t.Fatalf("probe %d should still be allowed", i+1)
		}
	}
	if s.RTO() <= rto0 {
		t.Fatal("probe timeout did not back off")
	}
	if _, ok := s.OnProbeAt(0); ok {
		t.Fatal("stream should fail after MaxProbes")
	}
	// Progress resets the budget.
	s2 := NewSendStream(o)
	s2.Begin(1, frags(1, 1))
	s2.Begin(2, frags(2, 1))
	s2.OnProbeAt(0)
	s2.OnProbeAt(0)
	if _, freed, _ := s2.HandleAckAt(0, Ack{Cum: 1}); !freed {
		t.Fatal("ack should free window space")
	}
	if s2.RTO() != o.rto {
		t.Fatal("progress did not reset the backoff")
	}
}

func TestRecvDedupAndCumAdvance(t *testing.T) {
	r := NewRecvStream()
	if !r.Fresh(1, 100) || !r.Fresh(2, 101) {
		t.Fatal("new sequences should be fresh")
	}
	r.Deliver(2) // out of order
	r.Deliver(1)
	a := r.AckState(func(uint64) []int { return nil }, 0)
	if a.Cum != 2 || len(a.Sacks) != 0 {
		t.Fatalf("ack = %+v, want cum=2 no sacks", a)
	}
	if r.Fresh(1, 100) || r.Fresh(2, 101) {
		t.Fatal("delivered sequences must be duplicates")
	}
	if !r.Fresh(4, 103) {
		t.Fatal("gap sequence should be fresh")
	}
	r.Deliver(4)
	a = r.AckState(func(uint64) []int { return nil }, 0)
	if a.Cum != 2 || !reflect.DeepEqual(a.Sacks, []uint32{4}) {
		t.Fatalf("ack = %+v, want cum=2 sacks=[4]", a)
	}
}

func TestGapEvidence(t *testing.T) {
	r := NewRecvStream()
	r.Fresh(1, 100)
	r.Deliver(1)
	if r.Gapped() {
		t.Fatal("no gap after in-order delivery")
	}
	// Seq 3 completes while seq 2 was never seen: provable loss.
	r.Fresh(3, 102)
	r.Deliver(3)
	if !r.Gapped() {
		t.Fatal("missing seq 2 below the horizon should be a provable gap")
	}
	// Partial below the horizon is also evidence.
	r2 := NewRecvStream()
	r2.Fresh(1, 100) // incomplete
	r2.Fresh(2, 101)
	r2.Deliver(2)
	if !r2.Gapped() {
		t.Fatal("partial below the horizon should be a provable gap")
	}
}

func TestAckCodecRoundTrip(t *testing.T) {
	in := Ack{
		Cum:   7,
		Sacks: []uint32{9, 12},
		Partials: []Partial{
			{Seq: 8, Missing: []int{0, 5, 63}},
			{Seq: 10, Missing: []int{2}},
		},
		Nonce: 3,
	}
	a, probe, err := DecodeCtl(EncodeAck(in, 1400))
	if err != nil || probe {
		t.Fatalf("decode: probe=%v err=%v", probe, err)
	}
	if !reflect.DeepEqual(a, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", a, in)
	}
	// Bounded encoding: a state report too big for one frame sheds
	// detail instead of exceeding the MTU, and still decodes.
	big := Ack{Cum: 1, Nonce: 9}
	for s := uint32(0); s < 200; s++ {
		big.Sacks = append(big.Sacks, 3+2*s)
		miss := make([]int, 300)
		for i := range miss {
			miss[i] = i
		}
		big.Partials = append(big.Partials, Partial{Seq: 4 + 2*s, Missing: miss})
	}
	for _, budget := range []int{16, 20, 64, 600, 1400} {
		enc := EncodeAck(big, budget)
		if len(enc) > budget && budget >= 16 {
			t.Fatalf("bounded ack is %d bytes, budget %d", len(enc), budget)
		}
		got, _, err := DecodeCtl(enc)
		if err != nil {
			t.Fatalf("bounded ack (budget %d) does not decode: %v", budget, err)
		}
		if got.Cum != 1 || got.Nonce != 9 {
			t.Fatalf("bounded ack lost its head state: %+v", got)
		}
		// A partial entry squeezed to an empty missing list would read as
		// "I hold this message" and suppress repair: it must never be
		// emitted (confirmed livelock before this guard).
		for _, p := range got.Partials {
			if len(p.Missing) == 0 {
				t.Fatalf("budget %d emitted a partial with no missing indexes: %+v", budget, got)
			}
		}
	}
	// Sender-side belt and braces: an empty partial from a malformed
	// peer must not suppress the probed full resend.
	s3 := NewSendStream(Options{}.Fill())
	seq := s3.Begin(1, frags(1, 2))
	s3.MarkSent(seq)
	n3, _ := s3.OnProbeAt(0)
	resend3, _, _ := s3.HandleAckAt(0, Ack{Nonce: n3, Partials: []Partial{{Seq: seq}}})
	if len(resend3) != 1 || len(resend3[0].Frags) != 2 {
		t.Fatalf("empty partial suppressed the probed full resend: %v", resend3)
	}
	p, probe, err := DecodeCtl(EncodeProbe(42))
	if err != nil || !probe || p.Nonce != 42 {
		t.Fatalf("probe decode: probe=%v nonce=%d err=%v", probe, p.Nonce, err)
	}
	if _, _, err := DecodeCtl(nil); err == nil {
		t.Fatal("empty control should fail to decode")
	}
	if _, _, err := DecodeCtl([]byte{9}); err == nil {
		t.Fatal("unknown op should fail to decode")
	}
}

// An ack's buffer is sized to what the ack holds, not to the frame it
// may grow to: the happy-path ack (no sacks, no partials) is 13 bytes in
// one allocation of at most 16, where it used to zero a whole fragment
// payload; a detailed one is exactly its encoding, and one that must shed
// detail is the budget.
func TestAckBufferSizedToContents(t *testing.T) {
	var enc []byte
	allocs := testing.AllocsPerRun(100, func() { enc = EncodeAck(Ack{Cum: 7, Nonce: 3}, 1400) })
	if allocs != 1 || len(enc) != 13 || cap(enc) > 16 {
		t.Fatalf("happy-path ack: %v allocations, len %d, cap %d; want 1, 13, <= 16", allocs, len(enc), cap(enc))
	}
	detailed := Ack{Cum: 7, Sacks: []uint32{9, 12}, Partials: []Partial{{Seq: 8, Missing: []int{0, 5, 63}}, {Seq: 10}}}
	if enc = EncodeAck(detailed, 1400); cap(enc) != len(enc) {
		t.Fatalf("detailed ack: len %d in a buffer of %d", len(enc), cap(enc))
	}
	if enc = EncodeAck(detailed, 24); cap(enc) != 24 || len(enc) > 24 {
		t.Fatalf("shedding ack: len %d, cap %d, budget 24", len(enc), cap(enc))
	}
}

// Sacks must come out ascending however delivery order interleaves —
// the sender's resend logic and the wire encoder both rely on it, and
// the receive path maintains the order on insert rather than sorting
// per ack.
func TestSacksSortedWithoutPerAckSort(t *testing.T) {
	r := NewRecvStream()
	none := func(uint64) []int { return nil }
	for _, seq := range []uint32{9, 3, 7, 5, 11, 4} {
		if !r.Fresh(seq, uint64(seq)) {
			t.Fatalf("seq %d not fresh", seq)
		}
		r.Deliver(seq)
	}
	a := r.AckState(none, 0)
	if a.Cum != 0 {
		t.Fatalf("cum = %d, want 0 (seq 1 missing)", a.Cum)
	}
	want := []uint32{3, 4, 5, 7, 9, 11}
	if len(a.Sacks) != len(want) {
		t.Fatalf("sacks = %v, want %v", a.Sacks, want)
	}
	for i := range want {
		if a.Sacks[i] != want[i] {
			t.Fatalf("sacks = %v, want %v", a.Sacks, want)
		}
	}
	// Filling the gap retires the whole prefix into cum.
	for _, seq := range []uint32{1, 2} {
		r.Fresh(seq, uint64(seq))
		r.Deliver(seq)
	}
	a = r.AckState(none, 0)
	if a.Cum != 5 {
		t.Fatalf("cum = %d, want 5", a.Cum)
	}
	if len(a.Sacks) != 3 || a.Sacks[0] != 7 || a.Sacks[1] != 9 || a.Sacks[2] != 11 {
		t.Fatalf("sacks after prefix retire = %v, want [7 9 11]", a.Sacks)
	}
	// Duplicates must still be suppressed through the sorted path.
	if r.Fresh(7, 7) || r.Fresh(5, 5) {
		t.Fatal("delivered sequence reported fresh")
	}
}
