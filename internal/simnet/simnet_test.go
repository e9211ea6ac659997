package simnet_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/transporttest"
)

type simHarness struct {
	topo simnet.Topology
	n    int
}

func (h *simHarness) Size() int { return h.n }

func (h *simHarness) Run(t *testing.T, fns []func(ep transport.Endpoint) error) {
	t.Helper()
	nw := simnet.New(h.n, h.topo, simnet.DefaultProfile())
	wrapped := make([]func(ep *simnet.Endpoint) error, len(fns))
	for i, fn := range fns {
		fn := fn
		wrapped[i] = func(ep *simnet.Endpoint) error { return fn(ep) }
	}
	if err := nw.Run(wrapped); err != nil {
		t.Fatal(err)
	}
}

func TestSimnetConformanceSwitch(t *testing.T) {
	transporttest.RunAll(t, func(t *testing.T, n int) transporttest.Harness {
		return &simHarness{topo: simnet.Switch, n: n}
	})
}

func TestSimnetConformanceHub(t *testing.T) {
	transporttest.RunAll(t, func(t *testing.T, n int) transporttest.Harness {
		return &simHarness{topo: simnet.Hub, n: n}
	})
}

func TestSendChargesHostOverhead(t *testing.T) {
	nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
	prof := simnet.DefaultProfile()
	var sendDone int64
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			if err := ep.Send(1, transport.Message{Payload: make([]byte, 100)}); err != nil {
				return err
			}
			sendDone = ep.Now()
			return nil
		},
		func(ep *simnet.Endpoint) error {
			_, err := ep.Recv()
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := prof.OSend + prof.OFrag + 100*prof.OByte // one fragment, 100 bytes
	if sendDone != want {
		t.Fatalf("send completed at %dns, want %dns", sendDone, want)
	}
}

func TestReliablePenaltyCharged(t *testing.T) {
	run := func(reliable bool) int64 {
		nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
		var done int64
		err := nw.Run([]func(ep *simnet.Endpoint) error{
			func(ep *simnet.Endpoint) error {
				if err := ep.Send(1, transport.Message{Reliable: reliable}); err != nil {
					return err
				}
				done = ep.Now()
				return nil
			},
			func(ep *simnet.Endpoint) error {
				_, err := ep.Recv()
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	prof := simnet.DefaultProfile()
	gap := run(true) - run(false)
	if gap != prof.TCPPenalty {
		t.Fatalf("reliable send costs %dns extra, want %dns", gap, prof.TCPPenalty)
	}
}

func TestLatencyScalesWithMessageSize(t *testing.T) {
	measure := func(size int) int64 {
		nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
		var arrived int64
		err := nw.Run([]func(ep *simnet.Endpoint) error{
			func(ep *simnet.Endpoint) error {
				return ep.Send(1, transport.Message{Payload: make([]byte, size)})
			},
			func(ep *simnet.Endpoint) error {
				if _, err := ep.Recv(); err != nil {
					return err
				}
				arrived = ep.Now()
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return arrived
	}
	small, large := measure(10), measure(5000)
	if large <= small {
		t.Fatalf("5000-byte message (%dns) not slower than 10-byte (%dns)", large, small)
	}
	// 5000 bytes = 4 fragments; at least 4 extra frame serializations
	// (~123µs each at 100 Mbps) must separate the two.
	if large-small < 300_000 {
		t.Fatalf("size scaling too weak: delta = %dns", large-small)
	}
}

func TestHubSlowerThanSwitchUnderContention(t *testing.T) {
	// Five ranks simultaneously send 1400-byte messages to rank 0: the
	// shared medium serializes everything and suffers collisions; the
	// switch only serializes at the single egress port but without
	// collisions or deferrals.
	measure := func(topo simnet.Topology) int64 {
		nw := simnet.New(6, topo, simnet.DefaultProfile())
		var last int64
		fns := make([]func(ep *simnet.Endpoint) error, 6)
		fns[0] = func(ep *simnet.Endpoint) error {
			for i := 0; i < 5; i++ {
				if _, err := ep.Recv(); err != nil {
					return err
				}
			}
			last = ep.Now()
			return nil
		}
		for r := 1; r < 6; r++ {
			fns[r] = func(ep *simnet.Endpoint) error {
				return ep.Send(0, transport.Message{Payload: make([]byte, 1400)})
			}
		}
		if err := nw.Run(fns); err != nil {
			t.Fatal(err)
		}
		return last
	}
	hub, sw := measure(simnet.Hub), measure(simnet.Switch)
	if hub == sw {
		t.Fatalf("hub and switch identical under contention (%dns)", hub)
	}
}

func TestStrictPostedDropsUnpostedMulticast(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	nw := simnet.New(2, simnet.Switch, prof)
	const group = 1
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			// Rank 1 joins at t=0; multicast with nobody blocked in Recv.
			ep.Proc().Sleep(200 * sim.Microsecond)
			if err := ep.Multicast(group, transport.Message{Payload: []byte("lost")}); err != nil {
				return err
			}
			// Hand rank 1 a unicast afterwards so it can terminate: the
			// unicast is NOT subject to the posted rule (TCP-like
			// buffering applies to it above this layer in real life).
			ep.Proc().Sleep(2 * sim.Millisecond)
			return ep.Send(1, transport.Message{Tag: 1})
		},
		func(ep *simnet.Endpoint) error {
			if err := ep.Join(group); err != nil {
				return err
			}
			// Busy "computing" while the multicast flies past.
			ep.Proc().Sleep(1 * sim.Millisecond)
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if m.Kind == transport.Mcast {
				return errors.New("received a multicast that should have been lost")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Stats.McastDropsNotPosted == 0 {
		t.Fatal("expected a not-posted multicast drop")
	}
}

func TestStrictPostedDeliversWhenPosted(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.StrictPosted = true
	nw := simnet.New(2, simnet.Switch, prof)
	const group = 1
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			// Scout-style synchronization: wait for readiness first.
			if _, err := ep.Recv(); err != nil {
				return err
			}
			return ep.Multicast(group, transport.Message{Payload: []byte("ok")})
		},
		func(ep *simnet.Endpoint) error {
			if err := ep.Join(group); err != nil {
				return err
			}
			if err := ep.Send(0, transport.Message{Class: transport.ClassScout}); err != nil {
				return err
			}
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if !bytes.Equal(m.Payload, []byte("ok")) {
				return fmt.Errorf("payload %q", m.Payload)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Stats.McastDropsNotPosted != 0 {
		t.Fatalf("unexpected drops: %d", nw.Stats.McastDropsNotPosted)
	}
}

func TestRecvRingOverflowDropsMessages(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.RecvRing = 2
	nw := simnet.New(2, simnet.Switch, prof)
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			for i := 0; i < 10; i++ {
				if err := ep.Send(1, transport.Message{Tag: int32(i)}); err != nil {
					return err
				}
			}
			return nil
		},
		func(ep *simnet.Endpoint) error {
			// Sleep long enough for all ten to arrive, then drain what
			// survived the 2-message ring.
			ep.Proc().Sleep(5 * sim.Millisecond)
			for i := 0; i < 2; i++ {
				if _, err := ep.Recv(); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Stats.RingOverflows == 0 {
		t.Fatal("expected ring overflow drops")
	}
}

func TestInjectedLossAppliesToMulticastOnly(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.LossRate = 1.0 // lose every multicast fragment
	nw := simnet.New(2, simnet.Switch, prof)
	const group = 1
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			ep.Proc().Sleep(100 * sim.Microsecond) // let rank 1 join
			if err := ep.Multicast(group, transport.Message{Payload: make([]byte, 100)}); err != nil {
				return err
			}
			// Point-to-point traffic must still get through.
			return ep.Send(1, transport.Message{Tag: 7})
		},
		func(ep *simnet.Endpoint) error {
			if err := ep.Join(group); err != nil {
				return err
			}
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if m.Kind != transport.P2P || m.Tag != 7 {
				t.Errorf("expected only the unicast to survive, got %+v", m)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Stats.InjectedLosses != 1 {
		t.Fatalf("InjectedLosses = %d, want 1", nw.Stats.InjectedLosses)
	}
}

func TestWireCountersByClass(t *testing.T) {
	nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error {
			if err := ep.Send(1, transport.Message{Class: transport.ClassScout}); err != nil {
				return err
			}
			// 3000 bytes -> 3 fragments of ClassData.
			return ep.Send(1, transport.Message{Class: transport.ClassData, Payload: make([]byte, 3000)})
		},
		func(ep *simnet.Endpoint) error {
			for i := 0; i < 2; i++ {
				if _, err := ep.Recv(); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.Wire.Frames(transport.ClassScout); got != 1 {
		t.Errorf("scout frames = %d, want 1", got)
	}
	if got := nw.Wire.Frames(transport.ClassData); got != 3 {
		t.Errorf("data frames = %d, want 3", got)
	}
	if got := nw.Wire.Bytes(transport.ClassData); got != 3000 {
		t.Errorf("data bytes = %d, want 3000", got)
	}
}

func TestMulticastSingleWireTransmission(t *testing.T) {
	// The whole point of multicast: one transmission, many receivers.
	// With 5 members, the sender's NIC puts exactly 1 data frame on the
	// wire (plus joins), not 5.
	nw := simnet.New(6, simnet.Switch, simnet.DefaultProfile())
	const group = 2
	fns := make([]func(ep *simnet.Endpoint) error, 6)
	fns[0] = func(ep *simnet.Endpoint) error {
		for i := 0; i < 5; i++ {
			if _, err := ep.Recv(); err != nil {
				return err
			}
		}
		return ep.Multicast(group, transport.Message{Class: transport.ClassData, Payload: make([]byte, 1000)})
	}
	for r := 1; r < 6; r++ {
		fns[r] = func(ep *simnet.Endpoint) error {
			if err := ep.Join(group); err != nil {
				return err
			}
			if err := ep.Send(0, transport.Message{Class: transport.ClassScout}); err != nil {
				return err
			}
			_, err := ep.Recv()
			return err
		}
	}
	if err := nw.Run(fns); err != nil {
		t.Fatal(err)
	}
	if got := nw.Wire.Frames(transport.ClassData); got != 1 {
		t.Errorf("multicast data frames on wire = %d, want 1", got)
	}
	if got := nw.Wire.Frames(transport.ClassScout); got != 5 {
		t.Errorf("scout frames = %d, want 5", got)
	}
}

func TestRankErrorIdentifiesRank(t *testing.T) {
	nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
	boom := errors.New("boom")
	err := nw.Run([]func(ep *simnet.Endpoint) error{
		func(ep *simnet.Endpoint) error { return nil },
		func(ep *simnet.Endpoint) error { return boom },
	})
	var re *simnet.RankError
	if !errors.As(err, &re) {
		t.Fatalf("Run = %v, want RankError", err)
	}
	if re.Rank != 1 || !errors.Is(err, boom) {
		t.Fatalf("RankError = %+v", re)
	}
}

// Whatever Run returns, the world is over: no rank program is left parked
// behind it, and a rank that was blocked when the world was given up has
// run its deferred functions.
func TestRunLeavesNoGoroutines(t *testing.T) {
	boom := errors.New("boom")
	recvOnce := func(ep *simnet.Endpoint) error { _, err := ep.Recv(); return err }
	sendOnce := func(ep *simnet.Endpoint) error { return ep.Send(0, transport.Message{Payload: []byte{1}}) }
	for _, tc := range []struct {
		name  string
		rank1 func(ep *simnet.Endpoint) error
		want  func(err error) bool
	}{
		{"nil", sendOnce, func(err error) bool { return err == nil }},
		{"RankError", func(ep *simnet.Endpoint) error { _ = sendOnce(ep); return boom },
			func(err error) bool { var re *simnet.RankError; return errors.As(err, &re) }},
		{"DeadlockError", func(*simnet.Endpoint) error { return nil },
			func(err error) bool { var dl *sim.DeadlockError; return errors.As(err, &dl) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
				cleaned := false
				err := nw.Run([]func(ep *simnet.Endpoint) error{
					func(ep *simnet.Endpoint) error {
						defer func() { cleaned = true }()
						return recvOnce(ep)
					},
					tc.rank1,
				})
				if !tc.want(err) {
					t.Fatalf("Run = %v, want %s", err, tc.name)
				}
				if !cleaned {
					t.Fatal("rank 0's deferred function never ran")
				}
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before 50 worlds, %d after", before, after)
			}
		})
	}
}

func TestDeterministicLatencies(t *testing.T) {
	measure := func() int64 {
		nw := simnet.New(4, simnet.Hub, simnet.DefaultProfile())
		var done int64
		fns := make([]func(ep *simnet.Endpoint) error, 4)
		fns[0] = func(ep *simnet.Endpoint) error {
			for i := 0; i < 3; i++ {
				if _, err := ep.Recv(); err != nil {
					return err
				}
			}
			done = ep.Now()
			return nil
		}
		for r := 1; r < 4; r++ {
			fns[r] = func(ep *simnet.Endpoint) error {
				return ep.Send(0, transport.Message{Payload: make([]byte, 500)})
			}
		}
		if err := nw.Run(fns); err != nil {
			t.Fatal(err)
		}
		return done
	}
	if a, b := measure(), measure(); a != b {
		t.Fatalf("same seed produced different timelines: %d vs %d", a, b)
	}
}
