package sim

import "slices"

// Queue is an unbounded FIFO message queue that simulated processes can
// block on. Producers may be event callbacks (e.g. a NIC delivering a
// frame) or other Procs; consumers are Procs. The zero value is not
// usable; create queues with NewQueue.
type Queue[T any] struct {
	eng *Engine
	// items is popped from head instead of re-sliced so the backing
	// array is reused; it resets to empty whenever the queue drains.
	items []T
	head  int
	// waiters holds the procs blocked in Recv in the order they blocked,
	// so that who is woken first — and so who gets which item — is part
	// of the reproducible timeline.
	waiters []*Proc
	closed  bool
}

// NewQueue returns an empty queue bound to eng.
func NewQueue[T any](eng *Engine) *Queue[T] {
	return &Queue[T]{eng: eng}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v and wakes every blocked consumer so it can re-check.
func (q *Queue[T]) Push(v T) {
	q.items = append(q.items, v)
	q.wakeAll()
}

// Close marks the queue closed; blocked and future Recv calls return
// ok=false once the queue drains.
func (q *Queue[T]) Close() {
	q.closed = true
	q.wakeAll()
}

func (q *Queue[T]) wakeAll() {
	for _, p := range q.waiters {
		p.Nudge()
	}
}

// Recv blocks p until an item is available and returns it. ok is false if
// the queue was closed and is empty.
func (q *Queue[T]) Recv(p *Proc) (v T, ok bool) {
	return q.RecvDeadline(p, 0)
}

// RecvDeadline is Recv with a virtual-time deadline; a zero deadline waits
// forever. On expiry it returns ok=false with the zero value (callers that
// must distinguish timeout from close can check Closed).
func (q *Queue[T]) RecvDeadline(p *Proc, deadline Time) (v T, ok bool) {
	if deadline > 0 {
		p.eng.At(Duration(deadline-p.eng.now), p.wake)
	}
	// A proc joins the waiters when it first has to block and leaves when
	// Recv returns, so it hears every Push in between. (A proc unwound by
	// Run never leaves, which nobody sees: its world is finished.)
	waiting := false
	for {
		if q.head < len(q.items) {
			v, ok = q.pop(), true
			break
		}
		if q.closed || (deadline > 0 && p.eng.now >= deadline) {
			break
		}
		if !waiting {
			q.waiters = append(q.waiters, p)
			waiting = true
		}
		p.park()
	}
	if waiting {
		i := slices.Index(q.waiters, p)
		q.waiters = slices.Delete(q.waiters, i, i+1)
	}
	return v, ok
}

// pop removes and returns the head item of a non-empty queue.
func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }
