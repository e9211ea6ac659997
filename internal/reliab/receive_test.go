package reliab

import (
	"testing"

	"repro/internal/transport"
)

// receiver is a driver for rank 0 of a two-rank world; rank 1 sends.
func receiver() (*Driver, *StatCounters) {
	st := new(StatCounters)
	return NewDriver(Host{Rank: 0, Size: 2, FragPayload: modelFrag, Stats: st}), st
}

// fragsOf splits an n-fragment message from rank 1 under msgID; a non-zero
// seq rides the stream, a multicast never does.
func fragsOf(kind transport.Kind, seq uint32, msgID uint64, n int, reliable bool) []transport.Fragment {
	m := transport.Message{Kind: kind, Src: 1, Reliable: reliable, Payload: make([]byte, (n-1)*modelFrag+1)}
	frags := transport.Split(m, msgID, modelFrag)
	for i := range frags {
		frags[i].Stream = seq
	}
	return frags
}

// tally is what Receive asked for over a run of fragments.
type tally struct {
	done, eager, throttled int
	frags                  int // Arrival.Frags of the completing fragment
	ack                    []byte
}

func receiveAll(d *Driver, now int64, frags []transport.Fragment, room bool) (t tally) {
	for _, f := range frags {
		a := d.Receive(now, f, room)
		if a.Done {
			t.done++
			t.frags = a.Frags
		}
		if a.Acks > 0 {
			t.eager += a.Acks
			t.ack = a.Ack
		}
		if a.Throttled != nil {
			t.throttled++
		}
	}
	return t
}

// TestReceivePolicy is the one ack policy both transports run: a delivered
// Reliable message of n fragments is acknowledged eagerly (n+1)/2 times,
// modeled TCP's delayed ack; a plain streamed message is not; an
// unsolicited ack goes out at most once, and only when the stream proves a
// gap.
func TestReceivePolicy(t *testing.T) {
	for _, n := range []int{1, 2, 7, 47} {
		for _, reliable := range []bool{true, false} {
			for _, gapped := range []bool{false, true} {
				d, st := receiver()
				seq, cum := uint32(1), uint32(1)
				if gapped {
					seq, cum = 2, 0 // seq 1 never arrives
				}
				got := receiveAll(d, 1, fragsOf(transport.P2P, seq, 9, n, reliable), true)
				want := tally{done: 1, frags: n}
				if reliable {
					want.eager = (n + 1) / 2
				}
				if gapped {
					want.throttled = 1
				}
				if got.done != want.done || got.frags != want.frags || got.eager != want.eager || got.throttled != want.throttled {
					t.Errorf("n=%d reliable=%v gapped=%v: %+v, want %+v", n, reliable, gapped, got, want)
				}
				if got.eager > 0 {
					a, probe, err := DecodeCtl(got.ack)
					if err != nil || probe || a.Nonce != 0 || a.Cum != cum || len(a.Sacks) != int(1-cum) {
						t.Errorf("n=%d gapped=%v: eager ack %+v (probe %v, err %v) does not report seq %d delivered", n, gapped, a, probe, err, seq)
					}
				}
				if sent := st.AcksSent.Load(); sent != int64(want.eager+want.throttled) {
					t.Errorf("n=%d reliable=%v gapped=%v: %d acks counted, %d sent", n, reliable, gapped, sent, want.eager+want.throttled)
				}
			}
		}
	}
}

// TestReceiveDuplicateRestatesState: a fragment of a message already
// delivered is dropped before reassembly, answered with the ack that says
// so, and is evidence that the network loses frames.
func TestReceiveDuplicateRestatesState(t *testing.T) {
	d, st := receiver()
	frags := fragsOf(transport.P2P, 1, 9, 3, false)
	if got := receiveAll(d, 1, frags, true); got.done != 1 || d.credit != 0 {
		t.Fatalf("first delivery: %+v, credit %d", got, d.credit)
	}
	a := d.Receive(2, frags[1], true)
	if a.Done || a.Acks != 0 || a.Throttled == nil {
		t.Fatalf("duplicate yielded %+v, want only the throttled ack", a)
	}
	ack, probe, err := DecodeCtl(a.Throttled)
	if err != nil || probe || ack.Cum != 1 || len(ack.Partials) != 0 {
		t.Fatalf("duplicate answered with %+v (probe %v, err %v), want Cum 1 and nothing partial", ack, probe, err)
	}
	if st.DupFragments.Load() != 1 || d.credit != max(1, int(RTO/minRTO)) {
		t.Fatalf("duplicate counted %d times, credit %d: no LossSeen", st.DupFragments.Load(), d.credit)
	}
	if d.Pending() != 0 {
		t.Fatalf("duplicate founded %d ghost partial messages", d.Pending())
	}
}

// TestReceiveWithoutRoomNeitherDeliversNorAcks: a message that completes
// while the transport cannot take it stays unacknowledged, so a probe's
// answer leaves it to a full resend, which then delivers it.
func TestReceiveWithoutRoomNeitherDeliversNorAcks(t *testing.T) {
	d, st := receiver()
	frags := fragsOf(transport.P2P, 1, 9, 3, true)
	if got := receiveAll(d, 1, frags, false); got.done != 1 || got.eager != 0 || got.throttled != 0 || st.AcksSent.Load() != 0 {
		t.Fatalf("completed without room: %+v, %d acks counted", got, st.AcksSent.Load())
	}
	if d.recv[1].rs.cum != 0 {
		t.Fatal("a message the transport could not take was recorded delivered")
	}
	if got := receiveAll(d, 2, frags, true); got.done != 1 || got.eager != 2 || d.recv[1].rs.cum != 1 {
		t.Fatalf("full resend with room: %+v, cum %d", got, d.recv[1].rs.cum)
	}
}

// TestReceiveCountsAndLeavesNoState: the fragment count a completed
// message reports includes the duplicates that arrived before it
// completed, and a stray repair fragment of a completed multicast is
// counted nowhere and leaves nothing behind.
func TestReceiveCountsAndLeavesNoState(t *testing.T) {
	d, _ := receiver()
	frags := fragsOf(transport.P2P, 1, 9, 3, true)
	got := receiveAll(d, 1, []transport.Fragment{frags[0], frags[0], frags[1], frags[1], frags[2]}, true)
	if got.done != 1 || got.frags != 5 || got.eager != 3 {
		t.Fatalf("3 fragments and 2 duplicates: %+v, want done once, 5 counted, 3 eager acks", got)
	}
	mc := fragsOf(transport.Mcast, 0, 10, 3, false)
	if got := receiveAll(d, 1, mc, true); got.done != 1 || got.frags != 3 || got.eager+got.throttled != 0 {
		t.Fatalf("multicast: %+v", got)
	}
	stray := mc[1]
	stray.Repair = true
	if a := d.Receive(2, stray, true); a.Done || a.Frags != 0 || a.Acks != 0 || a.Throttled != nil {
		t.Fatalf("stray repair fragment yielded %+v", a)
	}
	if d.Pending() != 0 {
		t.Fatalf("%d partial messages left behind", d.Pending())
	}
	if _, _, _, ok := d.PendingFrom(1); ok {
		t.Fatal("the stray repair fragment is reported pending")
	}
}
