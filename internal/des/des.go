// Package des is a deterministic discrete-event simulation kernel.
//
// It drives the full multi-station protocol simulator: stations schedule
// arrival events, the channel schedules slot-boundary and end-of-
// transmission events, and the kernel dispatches them in global time order.
// Determinism matters — two events at the same instant are dispatched in
// (priority, insertion-order) sequence, so a simulation run is a pure
// function of its seed.
//
// Pending events live in a binary heap, O(log n) per operation.  The
// protocol engines are slot-synchronous and keep only a handful of
// events pending (next slot boundary, end of transmission), so the heap
// is never their bottleneck.
package des

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback.  The pointer returned by Schedule stays
// valid until the event fires: fired events are recycled by the kernel
// for later Schedule calls (the engines schedule one event per slot, and
// the freelist makes that allocation-free), so a retained pointer must
// not be used — in particular not passed to Cancel — once the event has
// run.  Canceled events are never recycled.
type Event struct {
	// Time is the simulation time at which the event fires.
	Time float64
	// Priority breaks ties at equal times: lower fires first.  Use it to
	// order, e.g., "channel slot boundary" before "station reaction".
	Priority int
	// Fn is the callback; it runs with the clock set to Time.
	Fn func()

	seq      uint64 // insertion order, final tie-break
	index    int    // heap index, -1 when not queued
	canceled bool
}

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// eventLess is the kernel's total dispatch order.
func eventLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

// Simulator owns the clock and the pending-event set.
type Simulator struct {
	now        float64
	events     eventHeap
	seq        uint64
	dispatched uint64
	running    bool
	free       []*Event // fired events awaiting reuse
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Dispatched returns the number of events executed so far.
func (s *Simulator) Dispatched() uint64 { return s.dispatched }

// Pending returns the number of queued events.  Cancel removes an event
// from the heap at once, so every queued event is live.
func (s *Simulator) Pending() int { return len(s.events) }

// Schedule queues fn to run at the absolute time t with the given
// priority.  Scheduling in the past panics — it always indicates a model
// bug.  The returned Event may be passed to Cancel.
func (s *Simulator) Schedule(t float64, priority int, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: scheduling at non-finite time %v", t))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
		*e = Event{Time: t, Priority: priority, Fn: fn, seq: s.seq}
	} else {
		e = &Event{Time: t, Priority: priority, Fn: fn, seq: s.seq}
	}
	s.seq++
	heap.Push(&s.events, e)
	return e
}

// ScheduleAfter queues fn to run delay time units from now.
func (s *Simulator) ScheduleAfter(delay float64, priority int, fn func()) *Event {
	return s.Schedule(s.now+delay, priority, fn)
}

// Cancel removes a queued event so it will not fire.  Canceling an already
// canceled event (or nil) is a no-op.  A fired event must not be passed:
// the kernel has recycled it, so the pointer may identify a different,
// still-queued event (see the Event doc).
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		heap.Remove(&s.events, e.index)
	}
}

// Step dispatches the single next event.  It returns false when no events
// remain.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*Event)
	s.now = e.Time
	s.dispatched++
	// Recycle before dispatch: the callback typically schedules the
	// next slot, which can then reuse this very event.
	fn := e.Fn
	e.Fn = nil
	s.free = append(s.free, e)
	fn()
	return true
}

// Run dispatches events until the queue is empty.
func (s *Simulator) Run() {
	s.running = true
	for s.running && s.Step() {
	}
	s.running = false
}

// RunUntil dispatches events with Time <= tEnd, then advances the clock to
// exactly tEnd.  Events scheduled beyond tEnd remain queued.
func (s *Simulator) RunUntil(tEnd float64) {
	if tEnd < s.now {
		panic(fmt.Sprintf("des: RunUntil(%v) before now %v", tEnd, s.now))
	}
	s.running = true
	for s.running {
		if len(s.events) == 0 || s.events[0].Time > tEnd {
			break
		}
		s.Step()
	}
	s.running = false
	if s.now < tEnd {
		s.now = tEnd
	}
}

// Stop makes a Run/RunUntil in progress return after the current event.
func (s *Simulator) Stop() { s.running = false }
