package ethernet

import (
	"testing"

	"repro/internal/sim"
)

// TestSwitchFlowControlNoDrops: a saturating burst of 16 MTU frames from
// two senders into one egress port capped at two frames must deliver
// every frame — the senders are PAUSEd while the queue drains, since a
// full egress queue parks a frame at ingress rather than dropping it —
// and the queue depth must never exceed its cap.
func TestSwitchFlowControlNoDrops(t *testing.T) {
	e := sim.New()
	params := DefaultParams()
	params.SwitchQueueCap = 2
	sw := NewSwitch(e, params)
	rng := sim.NewRand(1)
	var nics []*NIC
	for i := 0; i < 3; i++ {
		n := NewNIC(e, UnicastMAC(i), params, rng.Fork())
		n.SetReceiver(func(Frame) {})
		sw.Attach(n)
		nics = append(nics, n)
	}
	nics[2].Send(Frame{Dst: UnicastMAC(9)}) // learn the destination port
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	f := Frame{Dst: UnicastMAC(2), Payload: make([]byte, 1500)}
	for i := 0; i < 8; i++ {
		nics[0].Send(f)
		nics[1].Send(f)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := nics[2].Stats.FramesReceived; got != 16 {
		t.Fatalf("delivered %d frames, want all 16", got)
	}
	if sw.Stats.PauseEvents == 0 {
		t.Fatal("a saturating burst should have paused the senders")
	}
	if sw.Stats.MaxQueueDepth > params.SwitchQueueCap {
		t.Fatalf("queue depth %d exceeded cap %d", sw.Stats.MaxQueueDepth, params.SwitchQueueCap)
	}
	var held int64
	for _, ps := range sw.PortStats() {
		held += ps.Held
		if ps.HighWatermark > params.SwitchQueueCap {
			t.Fatalf("port watermark %d exceeded cap %d", ps.HighWatermark, params.SwitchQueueCap)
		}
	}
	if held == 0 {
		t.Fatal("no frames were parked at ingress")
	}
}

// TestSwitchPauseTargetsSource: flow control must pause exactly the
// stations feeding the full queue; a station talking to an idle port
// keeps its full throughput.
func TestSwitchPauseTargetsSource(t *testing.T) {
	e := sim.New()
	params := DefaultParams()
	params.SwitchQueueCap = 1
	sw := NewSwitch(e, params)
	rng := sim.NewRand(1)
	var nics []*NIC
	for i := 0; i < 4; i++ {
		n := NewNIC(e, UnicastMAC(i), params, rng.Fork())
		n.SetReceiver(func(Frame) {})
		sw.Attach(n)
		nics = append(nics, n)
	}
	// Learn ports 2 and 3.
	nics[2].Send(Frame{Dst: UnicastMAC(9)})
	nics[3].Send(Frame{Dst: UnicastMAC(9)})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	start := e.Now()
	// Station 0 saturates port 2; station 1 sends one frame to idle port 3.
	for i := 0; i < 6; i++ {
		nics[0].Send(Frame{Dst: UnicastMAC(2), Payload: make([]byte, 1500)})
	}
	nics[1].Send(Frame{Dst: UnicastMAC(3), Payload: make([]byte, 1500)})
	var t3 sim.Time
	nics[3].SetReceiver(func(Frame) { t3 = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if nics[1].Paused() {
		t.Fatal("station on an uncongested path still paused after drain")
	}
	// The uncongested frame crossed in (ingress + latency + egress + props):
	// unaffected by port 2's congestion.
	f := Frame{Payload: make([]byte, 1500)}
	tx := sim.Time(params.TxTime(f))
	want := start + tx + sim.Time(params.PropDelay) + sim.Time(params.SwitchLatency) + tx + sim.Time(params.PropDelay)
	if t3 != want {
		t.Fatalf("uncongested delivery at %v, want %v (congestion leaked across ports)", t3, want)
	}
}

// TestSegmentSharedMedium: stations on one shared-uplink segment hear
// each other's frames directly, and an egress transmission reaches every
// station on the segment in one transmission (the multicast economy of
// the shared uplink).
func TestSegmentSharedMedium(t *testing.T) {
	e := sim.New()
	params := DefaultParams()
	sw := NewSwitch(e, params)
	rng := sim.NewRand(1)
	mk := func(id int) *NIC { return NewNIC(e, UnicastMAC(id), params, rng.Fork()) }
	// Segment A: stations 0, 1; segment B: stations 2, 3.
	segA := []*NIC{mk(0), mk(1)}
	segB := []*NIC{mk(2), mk(3)}
	counts := make(map[int]int)
	for i, n := range append(append([]*NIC{}, segA...), segB...) {
		i := i
		n.SetReceiver(func(Frame) { counts[i]++ })
	}
	sw.AttachSegment(segA)
	sw.AttachSegment(segB)

	// Unicast 0 -> 1: same segment, heard directly; the switch must not
	// echo it back (learned MAC on the same port).
	segA[1].Send(Frame{Dst: UnicastMAC(9)}) // learn 1's port
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	segA[0].Send(Frame{Dst: UnicastMAC(1), Payload: []byte("local")})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[1] != 1 {
		t.Fatalf("same-segment unicast delivered %d times, want 1", counts[1])
	}

	// Multicast with members on both segments: one egress transmission
	// serves all of segment B.
	g := GroupMAC(5)
	segA[1].Join(g)
	segB[0].Join(g)
	segB[1].Join(g)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		counts[i] = 0
	}
	fwdBefore := sw.Stats.FramesForwarded
	segA[0].Send(Frame{Dst: g, Kind: KindData, Payload: []byte("mc")})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("multicast deliveries = %v, want one at stations 1, 2, 3", counts)
	}
	// Exactly one forwarded copy (to segment B's port): segment A's
	// member heard the original transmission on the shared medium.
	if got := sw.Stats.FramesForwarded - fwdBefore; got != 1 {
		t.Fatalf("forwarded %d copies, want 1 (one shared egress per segment)", got)
	}
}

// TestSegmentRefcountedSnooping: the port stays in a multicast group
// until the LAST station on the segment leaves (the per-port membership
// must be refcounted, not boolean).
func TestSegmentRefcountedSnooping(t *testing.T) {
	e := sim.New()
	params := DefaultParams()
	sw := NewSwitch(e, params)
	rng := sim.NewRand(1)
	seg := []*NIC{NewNIC(e, UnicastMAC(0), params, rng.Fork()), NewNIC(e, UnicastMAC(1), params, rng.Fork())}
	src := NewNIC(e, UnicastMAC(2), params, rng.Fork())
	got := 0
	seg[1].SetReceiver(func(Frame) { got++ })
	seg[0].SetReceiver(func(Frame) {})
	src.SetReceiver(func(Frame) {})
	sw.AttachSegment(seg)
	sw.Attach(src)
	g := GroupMAC(7)
	seg[0].Join(g)
	seg[1].Join(g)
	seg[0].Leave(g) // the other member must keep the port subscribed
	src.Send(Frame{Dst: g, Kind: KindData, Payload: []byte("x")})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("remaining member received %d frames, want 1", got)
	}
}

// TestSegmentSerializes: two stations transmitting at once on one
// segment are serialized by the shared medium — the second frame's
// delivery waits a full frame time behind the first.
func TestSegmentSerializes(t *testing.T) {
	e := sim.New()
	params := DefaultParams()
	sw := NewSwitch(e, params)
	rng := sim.NewRand(1)
	seg := []*NIC{NewNIC(e, UnicastMAC(0), params, rng.Fork()), NewNIC(e, UnicastMAC(1), params, rng.Fork())}
	dst := NewNIC(e, UnicastMAC(2), params, rng.Fork())
	var arrivals []sim.Time
	dst.SetReceiver(func(Frame) { arrivals = append(arrivals, e.Now()) })
	for _, n := range seg {
		n.SetReceiver(func(Frame) {})
	}
	sw.AttachSegment(seg)
	sw.Attach(dst)
	dst.Send(Frame{Dst: UnicastMAC(9)}) // learn dst's port
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	f := Frame{Dst: UnicastMAC(2), Payload: make([]byte, 1000)}
	seg[0].Send(f)
	seg[1].Send(f)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("received %d frames, want 2", len(arrivals))
	}
	tx := sim.Time(params.TxTime(f))
	if gap := arrivals[1] - arrivals[0]; gap < tx {
		t.Fatalf("segment did not serialize: arrival gap %v < one frame time %v", gap, tx)
	}
}
