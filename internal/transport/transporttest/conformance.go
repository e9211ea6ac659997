// Package transporttest is a conformance suite for transport.Endpoint
// implementations. Every transport (in-memory, simulated Ethernet, real
// UDP) must pass the same behavioural contract: tagged message delivery,
// pairwise FIFO ordering, receiver-directed multicast, large-message
// fragmentation transparency and close semantics.
package transporttest

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/transport"
)

// Harness abstracts how a transport runs a set of rank programs. The
// in-memory and UDP transports spawn goroutines; the simulator spawns
// virtual-time processes. Run must execute fns[i] with the endpoint of
// world rank i and propagate any error to t.
type Harness interface {
	// Size returns the world size the harness was built with.
	Size() int
	// Run executes the rank programs to completion.
	Run(t *testing.T, fns []func(ep transport.Endpoint) error)
}

// Factory builds a fresh harness with n ranks. Factories that cannot
// support the environment (e.g. no multicast-capable interface) should
// t.Skip.
type Factory func(t *testing.T, n int) Harness

// RunAll exercises the full conformance suite against the factory.
func RunAll(t *testing.T, f Factory) {
	t.Run("PairwiseDelivery", func(t *testing.T) { testPairwiseDelivery(t, f) })
	t.Run("PairwiseFIFO", func(t *testing.T) { testPairwiseFIFO(t, f) })
	t.Run("TagAndCommCarried", func(t *testing.T) { testTagAndCommCarried(t, f) })
	t.Run("EmptyPayload", func(t *testing.T) { testEmptyPayload(t, f) })
	t.Run("LargeMessage", func(t *testing.T) { testLargeMessage(t, f) })
	t.Run("MulticastMembersOnly", func(t *testing.T) { testMulticastMembersOnly(t, f) })
	t.Run("MulticastExcludesSender", func(t *testing.T) { testMulticastExcludesSender(t, f) })
	t.Run("MulticastLargeMessage", func(t *testing.T) { testMulticastLargeMessage(t, f) })
	t.Run("MulticastAfterLeave", func(t *testing.T) { testMulticastAfterLeave(t, f) })
	t.Run("AllToOneFanIn", func(t *testing.T) { testAllToOneFanIn(t, f) })
	t.Run("Exchange", func(t *testing.T) { testExchange(t, f) })
	t.Run("ClockMonotonic", func(t *testing.T) { testClockMonotonic(t, f) })
	t.Run("ReliableStream", func(t *testing.T) { testReliableStream(t, f) })
	t.Run("Ping", func(t *testing.T) { testPing(t, f) })
	t.Run("LastLoss", func(t *testing.T) { testLastLoss(t, f) })
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func testPairwiseDelivery(t *testing.T, f Factory) {
	h := f(t, 2)
	fns := make([]func(transport.Endpoint) error, 2)
	want := pattern(100, 3)
	fns[0] = func(ep transport.Endpoint) error {
		return ep.Send(1, transport.Message{Tag: 5, Payload: want})
	}
	fns[1] = func(ep transport.Endpoint) error {
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Src != 0 {
			return fmt.Errorf("src = %d, want 0", m.Src)
		}
		if m.Kind != transport.P2P {
			return fmt.Errorf("kind = %v, want p2p", m.Kind)
		}
		if !bytes.Equal(m.Payload, want) {
			return fmt.Errorf("payload mismatch: got %d bytes", len(m.Payload))
		}
		return nil
	}
	h.Run(t, fns)
}

func testPairwiseFIFO(t *testing.T, f Factory) {
	h := f(t, 2)
	const n = 50
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		for i := 0; i < n; i++ {
			if err := ep.Send(1, transport.Message{Tag: int32(i), Payload: []byte{byte(i)}}); err != nil {
				return err
			}
		}
		return nil
	}
	fns[1] = func(ep transport.Endpoint) error {
		for i := 0; i < n; i++ {
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if m.Tag != int32(i) {
				return fmt.Errorf("message %d arrived with tag %d: FIFO violated", i, m.Tag)
			}
		}
		return nil
	}
	h.Run(t, fns)
}

func testTagAndCommCarried(t *testing.T, f Factory) {
	h := f(t, 2)
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		return ep.Send(1, transport.Message{
			Comm: 42, Tag: -7, Seq: 99, Class: transport.ClassScout, Reliable: true,
		})
	}
	fns[1] = func(ep transport.Endpoint) error {
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Comm != 42 || m.Tag != -7 || m.Seq != 99 || m.Class != transport.ClassScout || !m.Reliable {
			return fmt.Errorf("header fields lost: %+v", m)
		}
		return nil
	}
	h.Run(t, fns)
}

func testEmptyPayload(t *testing.T, f Factory) {
	h := f(t, 2)
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		return ep.Send(1, transport.Message{Tag: 1})
	}
	fns[1] = func(ep transport.Endpoint) error {
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if len(m.Payload) != 0 {
			return fmt.Errorf("payload = %d bytes, want 0", len(m.Payload))
		}
		return nil
	}
	h.Run(t, fns)
}

func testLargeMessage(t *testing.T, f Factory) {
	h := f(t, 2)
	// Large enough to force several fragments on MTU-bound transports.
	want := pattern(10_000, 11)
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		return ep.Send(1, transport.Message{Tag: 2, Payload: want})
	}
	fns[1] = func(ep transport.Endpoint) error {
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if !bytes.Equal(m.Payload, want) {
			return fmt.Errorf("large payload corrupted: got %d bytes want %d", len(m.Payload), len(want))
		}
		return nil
	}
	h.Run(t, fns)
}

func testMulticastMembersOnly(t *testing.T, f Factory) {
	h := f(t, 4)
	const group = 7
	want := pattern(64, 2)
	fns := make([]func(transport.Endpoint) error, 4)
	// Ranks 1 and 2 join; rank 3 does not. Rank 3 confirms non-delivery
	// by receiving a later unicast "flush" and nothing before it.
	fns[0] = func(ep transport.Endpoint) error {
		// Receive joins before multicasting.
		for i := 0; i < 2; i++ {
			if _, err := ep.Recv(); err != nil {
				return err
			}
		}
		if err := ep.Multicast(group, transport.Message{Seq: 1, Payload: want}); err != nil {
			return err
		}
		return ep.Send(3, transport.Message{Tag: 99})
	}
	member := func(ep transport.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Send(0, transport.Message{Tag: 1}); err != nil {
			return err
		}
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Kind != transport.Mcast {
			return fmt.Errorf("kind = %v, want mcast", m.Kind)
		}
		if m.Src != 0 || m.Seq != 1 || !bytes.Equal(m.Payload, want) {
			return fmt.Errorf("multicast corrupted: src=%d seq=%d len=%d", m.Src, m.Seq, len(m.Payload))
		}
		return nil
	}
	fns[1] = member
	fns[2] = member
	fns[3] = func(ep transport.Endpoint) error {
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Tag != 99 {
			return fmt.Errorf("non-member received unexpected message tag %d kind %v", m.Tag, m.Kind)
		}
		return nil
	}
	h.Run(t, fns)
}

func testMulticastExcludesSender(t *testing.T, f Factory) {
	h := f(t, 2)
	const group = 3
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if _, err := ep.Recv(); err != nil { // wait for rank 1's join signal
			return err
		}
		if err := ep.Multicast(group, transport.Message{Seq: 5}); err != nil {
			return err
		}
		// The sender itself is a member but must NOT receive its own
		// multicast. Rank 1 echoes with a unicast; that must be the next
		// (and only) message we see.
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Kind != transport.P2P || m.Tag != 77 {
			return fmt.Errorf("sender received its own multicast (kind %v tag %d)", m.Kind, m.Tag)
		}
		return nil
	}
	fns[1] = func(ep transport.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Send(0, transport.Message{Tag: 1}); err != nil {
			return err
		}
		if _, err := ep.Recv(); err != nil { // the multicast
			return err
		}
		return ep.Send(0, transport.Message{Tag: 77})
	}
	h.Run(t, fns)
}

func testMulticastLargeMessage(t *testing.T, f Factory) {
	h := f(t, 3)
	const group = 9
	want := pattern(8_000, 5)
	fns := make([]func(transport.Endpoint) error, 3)
	fns[0] = func(ep transport.Endpoint) error {
		for i := 0; i < 2; i++ {
			if _, err := ep.Recv(); err != nil {
				return err
			}
		}
		return ep.Multicast(group, transport.Message{Seq: 2, Payload: want})
	}
	member := func(ep transport.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Send(0, transport.Message{Tag: 1}); err != nil {
			return err
		}
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if !bytes.Equal(m.Payload, want) {
			return fmt.Errorf("fragmented multicast corrupted (%d bytes)", len(m.Payload))
		}
		return nil
	}
	fns[1] = member
	fns[2] = member
	h.Run(t, fns)
}

func testMulticastAfterLeave(t *testing.T, f Factory) {
	h := f(t, 3)
	const group = 4
	fns := make([]func(transport.Endpoint) error, 3)
	fns[0] = func(ep transport.Endpoint) error {
		for i := 0; i < 2; i++ {
			if _, err := ep.Recv(); err != nil {
				return err
			}
		}
		if err := ep.Multicast(group, transport.Message{Seq: 1}); err != nil {
			return err
		}
		return ep.Send(2, transport.Message{Tag: 99})
	}
	fns[1] = func(ep transport.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Send(0, transport.Message{Tag: 1}); err != nil {
			return err
		}
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Kind != transport.Mcast {
			return fmt.Errorf("member did not get multicast")
		}
		return nil
	}
	fns[2] = func(ep transport.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Leave(group); err != nil {
			return err
		}
		if err := ep.Send(0, transport.Message{Tag: 1}); err != nil {
			return err
		}
		m, err := ep.Recv()
		if err != nil {
			return err
		}
		if m.Tag != 99 {
			return fmt.Errorf("left member still received multicast")
		}
		return nil
	}
	h.Run(t, fns)
}

func testAllToOneFanIn(t *testing.T, f Factory) {
	h := f(t, 5)
	fns := make([]func(transport.Endpoint) error, 5)
	fns[0] = func(ep transport.Endpoint) error {
		seen := make(map[int]bool)
		for i := 0; i < 4; i++ {
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if seen[m.Src] {
				return fmt.Errorf("duplicate message from %d", m.Src)
			}
			seen[m.Src] = true
		}
		return nil
	}
	for r := 1; r < 5; r++ {
		fns[r] = func(ep transport.Endpoint) error {
			return ep.Send(0, transport.Message{Tag: int32(ep.Rank())})
		}
	}
	h.Run(t, fns)
}

func testExchange(t *testing.T, f Factory) {
	h := f(t, 4)
	fns := make([]func(transport.Endpoint) error, 4)
	for r := 0; r < 4; r++ {
		fns[r] = func(ep transport.Endpoint) error {
			partner := ep.Rank() ^ 1
			if err := ep.Send(partner, transport.Message{Tag: int32(ep.Rank()), Payload: pattern(300, byte(ep.Rank()))}); err != nil {
				return err
			}
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if m.Src != partner {
				return fmt.Errorf("rank %d got message from %d, want %d", ep.Rank(), m.Src, partner)
			}
			if !bytes.Equal(m.Payload, pattern(300, byte(partner))) {
				return fmt.Errorf("exchange payload corrupted")
			}
			return nil
		}
	}
	h.Run(t, fns)
}

// testReliableStream exercises the reliable stream of a transport.Wire:
// a burst of streamed messages — small, empty and multi-fragment,
// interleaved with a plain send — must arrive exactly once each with
// payloads intact. Transports without a wire are skipped (their delivery
// is already lossless).
func testReliableStream(t *testing.T, f Factory) {
	h := f(t, 2)
	const burst = 40
	fns := make([]func(transport.Endpoint) error, h.Size())
	fns[0] = func(ep transport.Endpoint) error {
		w, ok := ep.(transport.Wire)
		if !ok {
			return nil
		}
		for i := 0; i < burst; i++ {
			var payload []byte
			switch i % 3 {
			case 0:
				payload = pattern(50+i, byte(i))
			case 1:
				payload = nil // empty message
			case 2:
				payload = pattern(4000+i, byte(i)) // several fragments
			}
			if err := w.SendReliable(1, transport.Message{Tag: int32(i), Payload: payload}); err != nil {
				return fmt.Errorf("streamed send %d: %w", i, err)
			}
		}
		// A plain send closes the burst; both paths must coexist.
		return ep.Send(1, transport.Message{Tag: burst, Reliable: true, Payload: pattern(10, 99)})
	}
	fns[1] = func(ep transport.Endpoint) error {
		if _, ok := ep.(transport.Wire); !ok {
			return nil
		}
		seen := make(map[int32]bool)
		for len(seen) < burst+1 {
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if seen[m.Tag] {
				return fmt.Errorf("message tag %d delivered twice", m.Tag)
			}
			seen[m.Tag] = true
			var want []byte
			switch {
			case m.Tag == burst:
				want = pattern(10, 99)
			case m.Tag%3 == 0:
				want = pattern(50+int(m.Tag), byte(m.Tag))
			case m.Tag%3 == 1:
				want = nil
			default:
				want = pattern(4000+int(m.Tag), byte(m.Tag))
			}
			if !bytes.Equal(m.Payload, want) {
				return fmt.Errorf("message %d corrupted (%d bytes, want %d)", m.Tag, len(m.Payload), len(want))
			}
		}
		return nil
	}
	for i := 2; i < h.Size(); i++ {
		fns[i] = func(transport.Endpoint) error { return nil }
	}
	h.Run(t, fns)
}

// testPing: a live peer answers a transport.Wire's liveness probe, and a
// rank is never its own peer. Transports without a wire are skipped.
func testPing(t *testing.T, f Factory) {
	h := f(t, 2)
	const timeout = 1_000_000_000 // 1 s on the endpoint's clock
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		self, peer := false, true
		if w, ok := ep.(transport.Wire); ok {
			self, peer = w.Ping(0, timeout), w.Ping(1, timeout)
		}
		if err := ep.Send(1, transport.Message{Tag: 1}); err != nil {
			return err
		}
		if self || !peer {
			return fmt.Errorf("Ping(self) = %v, Ping(live peer) = %v; want false, true", self, peer)
		}
		return nil
	}
	fns[1] = func(ep transport.Endpoint) error {
		_, err := ep.Recv() // alive until rank 0 is done pinging
		return err
	}
	h.Run(t, fns)
}

// testLastLoss: a transport.Wire reports no loss while nothing is lost,
// and the arrival of a repair-flagged fragment — someone in earshot sent
// a frame twice — sets it to a time on the receiver's clock. Transports
// without a wire are skipped.
func testLastLoss(t *testing.T, f Factory) {
	h := f(t, 2)
	const group = 11
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		w, ok := ep.(transport.Wire)
		if !ok {
			return nil
		}
		if _, err := ep.Recv(); err != nil { // rank 1 has joined
			return err
		}
		m := transport.Message{Seq: 4, Payload: pattern(100, 4)}
		if err := ep.Multicast(group, m); err != nil {
			return err
		}
		if _, err := ep.Recv(); err != nil { // rank 1 holds it
			return err
		}
		if at := w.LastLoss(); at != 0 {
			return fmt.Errorf("sender: LastLoss() = %d on a lossless exchange, want 0", at)
		}
		return w.RepairMulticast(group, m, w.LastMulticastID(), nil)
	}
	fns[1] = func(ep transport.Endpoint) error {
		w, ok := ep.(transport.Wire)
		if !ok {
			return nil
		}
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Send(0, transport.Message{Tag: 1}); err != nil {
			return err
		}
		if _, err := ep.Recv(); err != nil { // the multicast
			return err
		}
		if at := w.LastLoss(); at != 0 {
			return fmt.Errorf("receiver: LastLoss() = %d on a lossless exchange, want 0", at)
		}
		if err := ep.Send(0, transport.Message{Tag: 2}); err != nil {
			return err
		}
		// A one-fragment repair is delivered again; by then it has been
		// seen.
		if _, err := ep.Recv(); err != nil {
			return err
		}
		if at := w.LastLoss(); at <= 0 || at > ep.Now() {
			return fmt.Errorf("receiver: LastLoss() = %d after a repair-flagged fragment at or before %d, want a time in (0, now]", at, ep.Now())
		}
		return nil
	}
	h.Run(t, fns)
}

func testClockMonotonic(t *testing.T, f Factory) {
	h := f(t, 2)
	fns := make([]func(transport.Endpoint) error, 2)
	fns[0] = func(ep transport.Endpoint) error {
		before := ep.Now()
		if err := ep.Send(1, transport.Message{Tag: 1}); err != nil {
			return err
		}
		after := ep.Now()
		if after < before {
			return fmt.Errorf("clock went backwards: %d -> %d", before, after)
		}
		return nil
	}
	fns[1] = func(ep transport.Endpoint) error {
		before := ep.Now()
		if _, err := ep.Recv(); err != nil {
			return err
		}
		if ep.Now() < before {
			return fmt.Errorf("clock went backwards across recv")
		}
		return nil
	}
	h.Run(t, fns)
}
