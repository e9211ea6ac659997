package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) error {
		for i := 0; i < 5; i++ {
			v, ok := q.Recv(p)
			if !ok {
				t.Error("unexpected close")
			}
			got = append(got, v)
		}
		return nil
	})
	for i := 0; i < 5; i++ {
		i := i
		e.At(Duration(10*(i+1)), func() { q.Push(i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestQueueRecvBeforePush(t *testing.T) {
	e := New()
	q := NewQueue[string](e)
	var at Time
	e.Spawn("consumer", func(p *Proc) error {
		v, ok := q.Recv(p)
		if !ok || v != "hello" {
			t.Errorf("Recv = %q,%v", v, ok)
		}
		at = p.Now()
		return nil
	})
	e.At(77, func() { q.Push("hello") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 77 {
		t.Fatalf("received at %v, want 77", at)
	}
}

func TestQueuePushBeforeRecvDoesNotBlock(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	q.Push(9)
	var at Time
	e.Spawn("consumer", func(p *Proc) error {
		v, ok := q.Recv(p)
		if !ok || v != 9 {
			t.Errorf("Recv = %d,%v", v, ok)
		}
		at = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("received at %v, want 0 (no blocking)", at)
	}
}

func TestQueueClose(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	e.Spawn("consumer", func(p *Proc) error {
		if _, ok := q.Recv(p); !ok {
			return nil
		}
		t.Error("expected closed queue")
		return nil
	})
	e.At(10, func() { q.Close() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueCloseDrainsRemainingItems(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	q.Push(1)
	q.Push(2)
	q.Close()
	var got []int
	e.Spawn("consumer", func(p *Proc) error {
		for {
			v, ok := q.Recv(p)
			if !ok {
				return nil
			}
			got = append(got, v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", got)
	}
}

func TestQueueRecvDeadlineTimesOut(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	e.Spawn("consumer", func(p *Proc) error {
		_, ok := q.RecvDeadline(p, 40)
		if ok {
			t.Error("expected timeout")
		}
		if p.Now() != 40 {
			t.Errorf("timed out at %v, want 40", p.Now())
		}
		return nil
	})
	e.At(100, func() { q.Push(1) }) // arrives after deadline
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueRecvDeadlineBeatenByPush(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	e.Spawn("consumer", func(p *Proc) error {
		v, ok := q.RecvDeadline(p, 100)
		if !ok || v != 5 {
			t.Errorf("RecvDeadline = %d,%v; want 5,true", v, ok)
		}
		return nil
	})
	e.At(20, func() { q.Push(5) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Consumers are woken in the order they blocked, so who gets which item
// is part of the timeline and the same on every run.
func TestTwoConsumersEachGetOneItem(t *testing.T) {
	for run := 0; run < 100; run++ {
		e := New()
		q := NewQueue[int](e)
		var got [2]int
		for i := range got {
			e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) error {
				v, ok := q.Recv(p)
				if !ok {
					t.Error("unexpected close")
				}
				got[i] = v
				return nil
			})
		}
		e.At(10, func() { q.Push(3) })
		e.At(20, func() { q.Push(4) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got != [2]int{3, 4} {
			t.Fatalf("run %d: consumers got %v, want [3 4] (first to block, first served)", run, got)
		}
	}
}

func TestProcToProcHandoff(t *testing.T) {
	e := New()
	a2b := NewQueue[int](e)
	b2a := NewQueue[int](e)
	e.Spawn("a", func(p *Proc) error {
		a2b.Push(1)
		v, _ := b2a.Recv(p)
		if v != 2 {
			t.Errorf("a received %d, want 2", v)
		}
		return nil
	})
	e.Spawn("b", func(p *Proc) error {
		v, _ := a2b.Recv(p)
		if v != 1 {
			t.Errorf("b received %d, want 1", v)
		}
		b2a.Push(2)
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: all pushed items are received exactly once, in push order.
func TestQueueDeliveryProperty(t *testing.T) {
	f := func(vals []int16) bool {
		e := New()
		q := NewQueue[int16](e)
		var got []int16
		e.Spawn("consumer", func(p *Proc) error {
			for {
				v, ok := q.Recv(p)
				if !ok {
					return nil
				}
				got = append(got, v)
			}
		})
		for i, v := range vals {
			v := v
			e.At(Duration(i+1), func() { q.Push(v) })
		}
		e.At(Duration(len(vals)+1), func() { q.Close() })
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a2 := NewRand(42)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincided %d/100 times", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
	if d := r.Duration(0); d != 0 {
		t.Fatalf("Duration(0) = %d, want 0", d)
	}
}
