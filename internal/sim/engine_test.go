package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var fired []Time
	e.At(10, func() {
		fired = append(fired, e.Now())
		e.At(5, func() { fired = append(fired, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	ran := false
	e.At(100, func() {
		e.At(-50, func() {
			if e.Now() != 100 {
				t.Errorf("negative delay fired at %v, want 100", e.Now())
			}
			ran = true
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	e := New()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) error {
		p.Sleep(250 * Microsecond)
		wake = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(250*Microsecond) {
		t.Fatalf("woke at %v, want 250µs", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) error {
				for k := 0; k < 3; k++ {
					p.Sleep(Duration(10 * (i + 1)))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 9 || len(b) != 9 {
		t.Fatalf("expected 9 entries, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic interleaving: %v vs %v", a, b)
		}
	}
}

func TestProcErrorPropagates(t *testing.T) {
	e := New()
	boom := errors.New("boom")
	e.Spawn("failing", func(p *Proc) error {
		p.Sleep(10)
		return boom
	})
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run() = %v, want boom", err)
	}
}

func TestProcPanicIsCaptured(t *testing.T) {
	e := New()
	e.Spawn("panicking", func(p *Proc) error {
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want panic error")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	e.Spawn("stuck", func(p *Proc) error {
		_, _ = q.Recv(p) // nothing will ever push
		return nil
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("Blocked = %v, want [stuck]", dl.Blocked)
	}
}

// Run owns the procs it started: a world it gives up on is unwound, so
// rank programs' deferred functions run and no goroutine, stack or world
// stays behind a returned error.
func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e := New()
		q := NewQueue[int](e)
		cleaned := false
		e.Spawn("stuck", func(p *Proc) error {
			defer func() { cleaned = true }()
			_, _ = q.Recv(p) // nothing will ever push
			return nil
		})
		err := e.Run()
		var dl *DeadlockError
		if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
			t.Fatalf("engine %d: Run() = %v, want DeadlockError naming stuck", i, err)
		}
		if !cleaned {
			t.Fatalf("engine %d: the stuck proc's deferred function never ran", i)
		}
		if again := e.Run(); again != err {
			t.Fatalf("engine %d: second Run() = %v, want the same %v", i, again, err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 200 deadlocked engines, %d after", before, after)
	}
}

func TestProcPanicUnwindsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New()
	q := NewQueue[int](e)
	cleaned, unbornRan := 0, false
	for i := 0; i < 7; i++ {
		e.Spawn(fmt.Sprintf("parked%d", i), func(p *Proc) error {
			defer func() { cleaned++ }()
			// A deferred function that blocks is unwound from there and
			// the ones registered before it still run.
			defer p.Sleep(5)
			_, _ = q.Recv(p)
			return nil
		})
	}
	e.Spawn("culprit", func(p *Proc) error {
		p.Sleep(10)
		e.Spawn("unborn", func(*Proc) error { unbornRan = true; return nil })
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want the culprit's panic")
	}
	for _, want := range []string{`proc "culprit" panicked: kaboom`, "TestProcPanicUnwindsParkedProcs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Run() error lacks %q:\n%v", want, err)
		}
	}
	if cleaned != 7 {
		t.Errorf("%d of 7 parked procs ran their deferred functions", cleaned)
	}
	if unbornRan {
		t.Error("a proc that had not started when the world failed was run")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after the failed world", before, after)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		d := d
		e.At(d, func() { fired = append(fired, e.Now()) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=25, want 2", len(fired))
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
}

func TestWaitForCondition(t *testing.T) {
	e := New()
	flag := false
	e.At(100, func() { flag = true })
	var done Time
	e.Spawn("waiter", func(p *Proc) error {
		// The flag-setter does not know about the proc, so pair the state
		// change with a nudge the way real components do.
		e.At(100, func() { p.Nudge() })
		if err := p.WaitFor(func() bool { return flag }, 0); err != nil {
			return err
		}
		done = p.Now()
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 100 {
		t.Fatalf("condition observed at %v, want 100", done)
	}
}

func TestWaitForTimeout(t *testing.T) {
	e := New()
	e.Spawn("waiter", func(p *Proc) error {
		err := p.WaitFor(func() bool { return false }, 50)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("WaitFor = %v, want ErrTimeout", err)
		}
		if p.Now() != 50 {
			t.Errorf("timed out at %v, want 50", p.Now())
		}
		return nil
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpuriousNudgeIsHarmless(t *testing.T) {
	e := New()
	q := NewQueue[int](e)
	var got int
	p := e.Spawn("consumer", func(p *Proc) error {
		v, ok := q.Recv(p)
		if !ok {
			t.Error("queue closed unexpectedly")
		}
		got = v
		return nil
	})
	// Nudge repeatedly with nothing queued; consumer must keep waiting.
	for i := 1; i <= 5; i++ {
		e.At(Duration(i*10), func() { p.Nudge() })
	}
	e.At(100, func() { q.Push(42) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

// Property: for any batch of delays, events fire in nondecreasing time
// order and the engine clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New()
		var fired []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.At(Duration(d), func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
