// Package sim provides a deterministic discrete-event simulation engine
// with cooperatively scheduled processes.
//
// The engine maintains a virtual clock in nanoseconds and an event queue.
// Network components (NICs, hubs, switches) are pure event-driven objects;
// application code (MPI ranks) runs in Procs — coroutines of the engine
// loop, each with a stack of its own, so simulated programs can use
// ordinary sequential Go code with blocking operations (Sleep, queue Recv)
// that advance virtual time instead of wall time. The engine switches to a
// Proc when its wake event fires and the Proc switches back when it
// blocks; both are direct switches on the calling thread (iter.Pull), not
// a hand-off through the Go scheduler, so a simulation costs the same
// whatever GOMAXPROCS is and its timeline cannot depend on it.
//
// Run owns the Procs it runs: when it gives a world up — a deadlock, or a
// Proc that panicked — it unwinds every Proc that has not finished before
// it returns, so deferred functions of rank programs run and no stack, and
// nothing a stack refers to, outlives the error.
//
// Determinism: events that fire at the same virtual time run in the order
// they were scheduled (a monotone sequence number breaks ties), and all
// randomness flows through explicitly seeded sources, so a simulation with
// the same inputs always produces the same timeline.
//
// The queue is split in two to keep scheduling cheap at high event rates:
// timed events live in a hand-rolled binary heap ordered by (at, seq),
// while zero-delay events — wake-ups, nudges, same-instant continuations,
// by far the majority at large world sizes — go to a plain FIFO that is
// O(1) to push and pop and allocates nothing. The split preserves the
// documented order exactly: a heap event due at the current instant was
// necessarily scheduled before the clock reached it (its delay was
// positive at scheduling time), so it carries a smaller sequence number
// than any zero-delay event scheduled at that instant and must run first;
// and while the FIFO drains, new events either join the FIFO (delay <= 0)
// or land strictly later on the heap (delay > 0), so the clock never has
// to advance with the FIFO non-empty.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1000.0 }

func (t Time) String() string { return fmt.Sprintf("%.3fµs", t.Microseconds()) }

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with New.
//
// An Engine is not safe for concurrent use: all interaction must happen
// either before Run, from event callbacks, or from code running inside a
// Proc spawned on this engine. This is by design — the simulation is
// single-threaded: exactly one of {engine loop, some Proc} executes at
// any instant, and control passes between them only by direct switch.
type Engine struct {
	now Time
	seq uint64

	// heap holds events with a future timestamp, a binary min-heap on
	// (at, seq). Hand-rolled rather than container/heap so pushes and
	// pops move concrete values instead of boxing through interfaces.
	heap []event

	// nowq holds events due at the current instant, in scheduling order.
	// Popped from nowqHead instead of re-slicing so the backing array is
	// reused; the slice resets to empty whenever the queue drains.
	nowq     []func()
	nowqHead int

	processed uint64
	procs     []*Proc
	// cur is the Proc currently holding the execution token, or nil when
	// the engine loop itself is running (e.g. inside event callbacks).
	cur *Proc

	// failure, if non-nil, aborts Run. Set by proc panics.
	failure error
}

// New returns an empty simulation at time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports the total number of events fired since creation —
// the denominator for wall-clock events/sec measurements.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run after delay elapses. A negative delay is treated
// as zero. Events scheduled for the same instant run in scheduling order.
func (e *Engine) At(delay Duration, fn func()) {
	if delay <= 0 {
		e.nowq = append(e.nowq, fn)
		return
	}
	e.seq++
	e.heapPush(event{at: e.now + Time(delay), seq: e.seq, fn: fn})
}

func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.heap = h
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(h[r], h[l]) {
			m = r
		}
		if !evLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	return top
}

// popNow removes and returns the next zero-delay event. Caller must have
// checked the queue is non-empty.
func (e *Engine) popNow() func() {
	fn := e.nowq[e.nowqHead]
	e.nowq[e.nowqHead] = nil
	e.nowqHead++
	if e.nowqHead == len(e.nowq) {
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
	return fn
}

// next returns the next event callback in timeline order, advancing the
// clock when nothing remains at the current instant. ok is false when
// both queues are empty.
func (e *Engine) next() (fn func(), ok bool) {
	// Heap events due now were scheduled before the clock reached this
	// instant, so they precede everything in nowq (see package comment).
	if len(e.heap) > 0 && e.heap[0].at == e.now {
		return e.heapPop().fn, true
	}
	if e.nowqHead < len(e.nowq) {
		return e.popNow(), true
	}
	if len(e.heap) > 0 {
		if e.heap[0].at < e.now {
			panic("sim: time went backwards")
		}
		e.now = e.heap[0].at
		return e.heapPop().fn, true
	}
	return nil, false
}

// DeadlockError is returned by Run when the event queue drains while one
// or more Procs are still blocked: nothing can ever wake them.
type DeadlockError struct {
	// Blocked lists the names of the blocked processes.
	Blocked []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock: %d proc(s) blocked forever: %v", len(d.Blocked), d.Blocked)
}

// Run processes events until the queue is empty, then verifies that every
// spawned Proc has finished. It returns the first error from a Proc
// function, an error wrapping a Proc panic, or a *DeadlockError if some
// Proc remains blocked with no pending events. On the last two the world
// is given up: Run unwinds every unfinished Proc before it returns (their
// deferred functions run, nothing stays parked), and the engine keeps
// returning that error.
func (e *Engine) Run() error {
	for e.failure == nil {
		fn, ok := e.next()
		if !ok {
			e.failure = e.deadlock()
			break
		}
		e.processed++
		fn()
	}
	if e.failure != nil {
		e.unwind()
		return e.failure
	}
	for _, p := range e.procs {
		if p.err != nil {
			return p.err
		}
	}
	return nil
}

// deadlock names the procs still blocked once no event is left to wake
// them, or returns nil when every proc has finished.
func (e *Engine) deadlock() error {
	var blocked []string
	for _, p := range e.procs {
		if p.state != procDone {
			blocked = append(blocked, p.name)
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	sort.Strings(blocked)
	return &DeadlockError{Blocked: blocked}
}

// RunUntil processes events with timestamps not after deadline. It is
// mainly useful in tests that examine intermediate simulation state.
func (e *Engine) RunUntil(deadline Time) error {
	for {
		var fn func()
		switch {
		case len(e.heap) > 0 && e.heap[0].at == e.now:
			fn = e.heapPop().fn
		case e.nowqHead < len(e.nowq):
			fn = e.popNow()
		case len(e.heap) > 0 && e.heap[0].at <= deadline:
			e.now = e.heap[0].at
			fn = e.heapPop().fn
		default:
			if e.now < deadline {
				e.now = deadline
			}
			return nil
		}
		e.processed++
		fn()
		if e.failure != nil {
			e.unwind()
			return e.failure
		}
	}
}

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.heap) + len(e.nowq) - e.nowqHead }
