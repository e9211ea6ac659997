package ethernet

import (
	"testing"

	"repro/internal/sim"
)

func TestSwitchFloodsUnknownThenLearns(t *testing.T) {
	e := sim.New()
	sw, nics, logs := buildSwitch(e, 3)
	// First frame to an unlearned address floods everywhere.
	nics[0].Send(Frame{Dst: UnicastMAC(1), Payload: []byte("x")})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.Stats.FramesFlooded != 1 {
		t.Fatalf("FramesFlooded = %d, want 1", sw.Stats.FramesFlooded)
	}
	if len(*logs[1]) != 1 {
		t.Fatalf("dst received %d, want 1", len(*logs[1]))
	}
	// Station 2 heard the flood on the wire but filtered it.
	if nics[2].Stats.FramesFiltered != 1 {
		t.Fatalf("bystander FramesFiltered = %d, want 1", nics[2].Stats.FramesFiltered)
	}
	// Reply: switch has learned station 0's port, so no flood this time.
	nics[1].Send(Frame{Dst: UnicastMAC(0), Payload: []byte("y")})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.Stats.FramesFlooded != 1 {
		t.Fatalf("FramesFlooded after learning = %d, want still 1", sw.Stats.FramesFlooded)
	}
	if nics[2].Stats.FramesFiltered != 1 {
		t.Fatalf("bystander saw learned unicast traffic")
	}
}

func TestSwitchIGMPSnooping(t *testing.T) {
	e := sim.New()
	sw, nics, logs := buildSwitch(e, 4)
	g := GroupMAC(3)
	nics[1].Join(g)
	nics[2].Join(g)
	nics[0].Send(Frame{Dst: g, Kind: KindData, Payload: []byte("mc")})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*logs[1]) != 1 || len(*logs[2]) != 1 {
		t.Fatalf("members got %d,%d frames, want 1,1", len(*logs[1]), len(*logs[2]))
	}
	// The snooping switch does not even put the frame on port 3's wire.
	if nics[3].Stats.FramesFiltered != 0 || len(*logs[3]) != 0 {
		t.Fatal("switch forwarded multicast to a non-member port")
	}
	if sw.Stats.FramesForwarded != 2 {
		t.Fatalf("FramesForwarded = %d, want 2", sw.Stats.FramesForwarded)
	}
}

func TestSwitchDropsMulticastWithNoMembers(t *testing.T) {
	e := sim.New()
	sw, nics, _ := buildSwitch(e, 3)
	nics[0].Send(Frame{Dst: GroupMAC(8)})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sw.Stats.MulticastDrops != 1 {
		t.Fatalf("MulticastDrops = %d, want 1", sw.Stats.MulticastDrops)
	}
}

func TestSwitchLeavePrunesPort(t *testing.T) {
	e := sim.New()
	_, nics, logs := buildSwitch(e, 3)
	g := GroupMAC(4)
	nics[1].Join(g)
	nics[2].Join(g)
	nics[2].Leave(g)
	nics[0].Send(Frame{Dst: g})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*logs[1]) != 1 {
		t.Fatal("remaining member lost delivery")
	}
	if len(*logs[2]) != 0 {
		t.Fatal("left member still receives")
	}
}

func TestSwitchStoreAndForwardLatency(t *testing.T) {
	e := sim.New()
	_, nics, _ := buildSwitch(e, 2)
	var arrival sim.Time
	nics[1].SetReceiver(func(Frame) { arrival = e.Now() })
	f := Frame{Dst: UnicastMAC(1), Payload: make([]byte, 1000)}
	nics[0].Send(f)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	tx := sim.Time(p.TxTime(f))
	// ingress serialization + prop + switch latency + egress serialization + prop
	want := tx + sim.Time(p.PropDelay) + sim.Time(p.SwitchLatency) + tx + sim.Time(p.PropDelay)
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestSwitchNoContentionBetweenPorts(t *testing.T) {
	// Two disjoint unicast flows should not delay each other on a switch.
	e := sim.New()
	_, nics, _ := buildSwitch(e, 4)
	var t01, t23 sim.Time
	nics[1].SetReceiver(func(Frame) { t01 = e.Now() })
	nics[3].SetReceiver(func(Frame) { t23 = e.Now() })
	// Pre-learn addresses so neither flow floods.
	nics[1].Send(Frame{Dst: UnicastMAC(9)})
	nics[3].Send(Frame{Dst: UnicastMAC(9)})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	start := e.Now()
	f := Frame{Payload: make([]byte, 1500)}
	f.Dst = UnicastMAC(1)
	nics[0].Send(f)
	f.Dst = UnicastMAC(3)
	nics[2].Send(f)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t01 != t23 {
		t.Fatalf("parallel flows finished at %v and %v; switch should not serialize them", t01, t23)
	}
	if t01 <= start {
		t.Fatal("flows did not run")
	}
}

func TestSwitchEgressQueueSerializesFanIn(t *testing.T) {
	// Two stations send to the same destination at once: the egress port
	// must serialize, adding one frame time between arrivals.
	e := sim.New()
	_, nics, _ := buildSwitch(e, 3)
	var arrivals []sim.Time
	nics[2].SetReceiver(func(Frame) { arrivals = append(arrivals, e.Now()) })
	// Learn station 2's port first.
	nics[2].Send(Frame{Dst: UnicastMAC(9)})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	f := Frame{Dst: UnicastMAC(2), Payload: make([]byte, 1000)}
	nics[0].Send(f)
	nics[1].Send(f)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("received %d frames, want 2", len(arrivals))
	}
	tx := sim.Time(DefaultParams().TxTime(f))
	if gap := arrivals[1] - arrivals[0]; gap != tx {
		t.Fatalf("egress gap = %v, want one frame time %v", gap, tx)
	}
}

func TestSwitchUnicastToSelfPortDropped(t *testing.T) {
	// A frame whose learned destination is the ingress port is not
	// reflected back.
	e := sim.New()
	_, nics, logs := buildSwitch(e, 2)
	// Learn 0's address.
	nics[0].Send(Frame{Dst: UnicastMAC(9)})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	nics[0].Send(Frame{Dst: UnicastMAC(0)})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*logs[0]) != 0 {
		t.Fatal("switch reflected a frame to its ingress port")
	}
}
