package transport

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// MemNet is an in-process transport: every endpoint is a goroutine-owned
// inbox channel, multicast is delivered by iterating the group in rank
// order. It has no MTU, no loss and no modeled latency; it exists for
// fast correctness testing of everything above the device layer. Having
// no wire, its endpoints do not implement Wire.
type MemNet struct {
	mu        sync.Mutex
	endpoints []*MemEndpoint
	groups    map[uint32]map[int]bool
	start     time.Time
}

// NewMemNet creates a world of n endpoints.
func NewMemNet(n int) *MemNet {
	if n <= 0 {
		panic("transport: MemNet size must be positive")
	}
	m := &MemNet{
		groups: make(map[uint32]map[int]bool),
		start:  time.Now(),
	}
	for i := 0; i < n; i++ {
		m.endpoints = append(m.endpoints, &MemEndpoint{
			net:   m,
			rank:  i,
			inbox: make(chan Message, 4096),
		})
	}
	return m
}

// Endpoint returns the endpoint for world rank i.
func (m *MemNet) Endpoint(i int) *MemEndpoint { return m.endpoints[i] }

// Size returns the world size.
func (m *MemNet) Size() int { return len(m.endpoints) }

// MemEndpoint is one rank's attachment to a MemNet.
type MemEndpoint struct {
	net    *MemNet
	rank   int
	inbox  chan Message
	closMu sync.Mutex
	closed bool
}

var _ Endpoint = (*MemEndpoint)(nil)

// Rank implements Endpoint.
func (e *MemEndpoint) Rank() int { return e.rank }

// Size implements Endpoint.
func (e *MemEndpoint) Size() int { return len(e.net.endpoints) }

// Now implements Endpoint using the wall clock.
func (e *MemEndpoint) Now() int64 { return time.Since(e.net.start).Nanoseconds() }

// Send implements Endpoint.
func (e *MemEndpoint) Send(dst int, m Message) error {
	if dst < 0 || dst >= len(e.net.endpoints) {
		return fmt.Errorf("transport: send to rank %d outside world of %d", dst, len(e.net.endpoints))
	}
	m.Kind = P2P
	m.Src = e.rank
	m.Payload = append([]byte(nil), m.Payload...)
	return e.net.endpoints[dst].deliver(m)
}

func (e *MemEndpoint) deliver(m Message) error {
	e.closMu.Lock()
	defer e.closMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.inbox <- m
	return nil
}

// Recv implements Endpoint.
func (e *MemEndpoint) Recv() (Message, error) {
	m, ok := <-e.inbox
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// RecvTimeout implements Endpoint.
func (e *MemEndpoint) RecvTimeout(timeout int64) (Message, bool, error) {
	t := time.NewTimer(time.Duration(timeout))
	defer t.Stop()
	select {
	case m, ok := <-e.inbox:
		if !ok {
			return Message{}, false, ErrClosed
		}
		return m, true, nil
	case <-t.C:
		return Message{}, false, nil
	}
}

// Join implements Endpoint.
func (e *MemEndpoint) Join(group uint32) error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	g := e.net.groups[group]
	if g == nil {
		g = make(map[int]bool)
		e.net.groups[group] = g
	}
	g[e.rank] = true
	return nil
}

// Leave implements Endpoint.
func (e *MemEndpoint) Leave(group uint32) error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if g := e.net.groups[group]; g != nil {
		delete(g, e.rank)
		if len(g) == 0 {
			delete(e.net.groups, group)
		}
	}
	return nil
}

// Multicast implements Endpoint: receiver-directed delivery to every
// joined member except the sender, in deterministic rank order.
func (e *MemEndpoint) Multicast(group uint32, m Message) error {
	e.net.mu.Lock()
	var members []int
	for r := range e.net.groups[group] {
		if r != e.rank {
			members = append(members, r)
		}
	}
	e.net.mu.Unlock()
	sort.Ints(members)
	m.Kind = Mcast
	m.Src = e.rank
	payload := append([]byte(nil), m.Payload...)
	for _, r := range members {
		dup := m
		dup.Payload = payload
		if err := e.net.endpoints[r].deliver(dup); err != nil && err != ErrClosed {
			return err
		}
	}
	return nil
}

// Close implements Endpoint.
func (e *MemEndpoint) Close() error {
	e.closMu.Lock()
	defer e.closMu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.inbox)
	}
	return nil
}
