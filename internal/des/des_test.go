package des

import (
	"math"
	"testing"
	"testing/quick"

	"windowctl/internal/rngutil"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, 0, func() { order = append(order, 3) })
	s.Schedule(1, 0, func() { order = append(order, 1) })
	s.Schedule(2, 0, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v", s.Now())
	}
	if s.Dispatched() != 3 {
		t.Fatal("dispatched count")
	}
}

func TestTieBreakByPriorityThenSeq(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(1, 5, func() { order = append(order, "low-prio-first-inserted") })
	s.Schedule(1, 1, func() { order = append(order, "high-prio") })
	s.Schedule(1, 5, func() { order = append(order, "low-prio-second-inserted") })
	s.Run()
	want := []string{"high-prio", "low-prio-first-inserted", "low-prio-second-inserted"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestScheduleAfter(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(2, 0, func() {
		s.ScheduleAfter(3, 0, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Fatalf("relative event fired at %v", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, 0, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(4, 0, func() {})
	})
	s.Run()
}

func TestNonFiniteTimePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN time accepted")
		}
	}()
	s.Schedule(math.NaN(), 0, func() {})
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, 0, func() { fired = true })
	s.Cancel(e)
	if n := s.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", n)
	}
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Double cancel and nil cancel are safe.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelInterleaved(t *testing.T) {
	s := New()
	var fired []int
	var e2 *Event
	s.Schedule(1, 0, func() {
		fired = append(fired, 1)
		s.Cancel(e2)
	})
	e2 = s.Schedule(2, 0, func() { fired = append(fired, 2) })
	s.Schedule(3, 0, func() { fired = append(fired, 3) })
	s.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		s.Schedule(tt, 0, func() { fired = append(fired, tt) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %v", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending %d", s.Pending())
	}
	// Continue to the end.
	s.RunUntil(10)
	if len(fired) != 5 || s.Now() != 10 {
		t.Fatalf("fired %v, now %v", fired, s.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(7)
	if s.Now() != 7 {
		t.Fatalf("idle clock %v", s.Now())
	}
}

func TestRunUntilPastPanics(t *testing.T) {
	s := New()
	s.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil into the past accepted")
		}
	}()
	s.RunUntil(4)
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), 0, func() {
			count++
			if count == 4 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("stop ignored: count=%d", count)
	}
	// Run can resume afterwards.
	s.Run()
	if count != 10 {
		t.Fatalf("resume failed: count=%d", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 100 {
			s.ScheduleAfter(0.5, 0, grow)
		}
	}
	s.Schedule(0, 0, grow)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d", depth)
	}
}

// Property: any random schedule dispatches in non-decreasing time order.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n%60) + 1
		r := rngutil.New(seed)
		s := New()
		var times []float64
		for i := 0; i < count; i++ {
			tt := r.Float64() * 100
			s.Schedule(tt, r.Intn(3), func() { times = append(times, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds produce identical dispatch traces.
func TestDeterministicReplayProperty(t *testing.T) {
	run := func(seed uint64) []float64 {
		r := rngutil.New(seed)
		s := New()
		var trace []float64
		var pump func()
		n := 0
		pump = func() {
			trace = append(trace, s.Now())
			n++
			if n < 50 {
				s.ScheduleAfter(r.Exp(1), 0, pump)
			}
		}
		s.Schedule(0, 0, pump)
		s.Run()
		return trace
	}
	f := func(seed uint64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateNoAlloc checks the slot-synchronous hot loop — one
// event per slot, each scheduling the next — runs allocation-free once
// the freelist and the heap are warm.
func TestSteadyStateNoAlloc(t *testing.T) {
	s := New()
	var slot func()
	slot = func() { s.ScheduleAfter(1, 0, slot) }
	s.Schedule(0, 0, slot)
	for i := 0; i < 1000; i++ {
		s.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Fatalf("steady-state Step allocates %v times per slot", avg)
	}
}

func BenchmarkScheduleDispatch(b *testing.B) {
	s := New()
	r := rngutil.New(1)
	// Keep a rolling window of 1000 pending events.
	for i := 0; i < 1000; i++ {
		s.ScheduleAfter(r.Exp(1), 0, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScheduleAfter(r.Exp(1), 0, func() {})
		s.Step()
	}
}
