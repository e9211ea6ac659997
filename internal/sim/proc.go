package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

type procState int

const (
	procReady procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process: a coroutine of the engine loop whose
// execution is interleaved with virtual time. At most one Proc runs at any
// instant; a Proc switches back to the engine whenever it sleeps or blocks,
// and the engine switches to it again when the corresponding wake event
// fires. Both switches are direct (iter.Pull): the engine loop and the proc
// take turns on one thread, and no scheduler decides who runs next.
//
// A Proc lives until its function returns or until Run gives the world up:
// on a deadlock or another proc's panic Run unwinds every unfinished proc,
// so its deferred functions run and nothing of the world stays behind.
//
// Proc methods may only be called from the Proc's own function — not from
// a goroutine that function starts. Nudge alone is safe elsewhere.
type Proc struct {
	eng   *Engine
	name  string
	state procState
	err   error

	// next switches from the engine loop to the proc and returns when the
	// proc parks or finishes; yield, called by the proc, switches back and
	// reports false once stop has asked the proc to unwind.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// wake is the reusable wake-if-parked callback shared by Nudge,
	// Sleep, WaitFor and queue deadlines, created once at Spawn so the
	// hot wake paths schedule without allocating a fresh closure.
	wake func()
}

// Spawn creates a Proc named name running fn and schedules it to start at
// the current virtual time. The error returned by fn is reported by
// Engine.Run after the simulation drains.
func (e *Engine) Spawn(name string, fn func(p *Proc) error) *Proc {
	p := &Proc{eng: e, name: name, state: procReady}
	p.wake = func() {
		if p.state == procParked {
			e.dispatch(p)
		}
	}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != errUnwound {
				p.err = fmt.Errorf("sim: proc %q panicked: %v\n%s", name, r, debug.Stack())
				if e.failure == nil {
					e.failure = p.err
				}
			}
			p.state = procDone
		}()
		p.err = fn(p)
	})
	e.At(0, func() { e.dispatch(p) })
	return p
}

// dispatch switches to p and returns to the engine loop when p parks or
// finishes. Must only be called from the engine loop (an event callback),
// never from inside another Proc.
func (e *Engine) dispatch(p *Proc) {
	if p.state == procDone {
		return
	}
	if e.cur != nil {
		panic("sim: dispatch while a proc is running")
	}
	e.cur = p
	p.state = procRunning
	p.next()
	e.cur = nil
}

// errUnwound is what park panics with in a proc that Run is unwinding. It
// carries the proc's stack down through its deferred functions to Spawn,
// which swallows it: being given up on is not a failure of the proc.
var errUnwound = errors.New("sim: proc unwound")

// unwind ends every proc that has not finished, in spawn order: a proc
// that never started is dropped, a parked one resumes inside park and
// panics its way out, running its deferred functions as the current proc
// (one that tries to block again is unwound again from there).
func (e *Engine) unwind() {
	for _, p := range e.procs {
		if p.state != procDone {
			e.cur = p
			p.stop()
			p.state = procDone
			e.cur = nil
		}
	}
}

// park yields control to the engine until some event resumes the proc.
func (p *Proc) park() {
	if p.eng.cur != p {
		panic("sim: park called outside proc context")
	}
	p.state = procParked
	p.eng.cur = nil
	resumed := p.yield(struct{}{})
	p.state = procRunning
	p.eng.cur = p
	if !resumed {
		panic(errUnwound)
	}
}

// Nudge schedules a wake-up for p at the current virtual time. If p is not
// parked when the wake fires, the nudge is a no-op; parked code must
// therefore always re-check its blocking condition in a loop (spurious
// wake-ups are allowed, exactly as with condition variables). Nudge is the
// only way event-driven code may interact with a Proc and is safe to call
// from event callbacks and from other Procs.
func (p *Proc) Nudge() {
	p.eng.At(0, p.wake)
}

// Name returns the name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the proc for d nanoseconds of virtual time. It models
// both idle waiting and CPU busy-time (the simulator does not distinguish
// them; callers use Sleep for host processing overheads).
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	deadline := p.eng.now + Time(d)
	p.eng.At(d, p.wake)
	for p.eng.now < deadline {
		p.park()
	}
}

// ErrTimeout is returned by deadline-limited waits.
var ErrTimeout = errors.New("sim: timed out")

// WaitFor parks the proc until cond() is true or the deadline passes.
// cond is evaluated each time the proc is woken (by a Nudge from whatever
// code makes the condition true, or by the internal timer). A deadline of
// zero or negative means wait forever. Returns ErrTimeout on expiry.
func (p *Proc) WaitFor(cond func() bool, deadline Time) error {
	if cond() {
		return nil
	}
	if deadline > 0 {
		p.eng.At(Duration(deadline-p.eng.now), p.wake)
	}
	for {
		if cond() {
			return nil
		}
		if deadline > 0 && p.eng.now >= deadline {
			return ErrTimeout
		}
		p.park()
	}
}
