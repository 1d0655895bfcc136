// Package sim provides a deterministic discrete-event scheduler and
// virtual clock. All simulated components (network fabric, NICs, RPC
// endpoints, CPU models) run on a single goroutine driven by the
// scheduler, which makes experiments reproducible: the same seed always
// yields the same packet interleaving.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common durations, mirroring time.Duration's units but on the virtual
// clock.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Duration converts a virtual time span to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Clock exposes the current time. Both the virtual scheduler and a
// wall-clock implementation satisfy it, so library code can run in
// either mode.
type Clock interface {
	Now() Time
}

// UnixClock is a Clock that can also say where a reading falls on the
// kernel's CLOCK_REALTIME, the clock that stamps received packets
// (SO_TIMESTAMPNS). NowUnix reads the clock once and returns the reading
// and the same instant in Unix nanoseconds. Virtual clocks cannot
// answer and do not implement it.
type UnixClock interface {
	Clock
	NowUnix() (Time, int64)
}

// WallClock is a Clock backed by the real monotonic clock.
type WallClock struct{ start time.Time }

// NewWallClock returns a Clock whose zero point is now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now implements Clock.
func (w *WallClock) Now() Time { return Time(time.Since(w.start)) }

// NowUnix implements UnixClock. time.Now reads the wall and the
// monotonic clock together, so this costs what Now does; relating each
// reading afresh keeps a slewed or stepped wall clock from drifting
// away from the monotonic one over a long run.
func (w *WallClock) NowUnix() (Time, int64) {
	now := time.Now()
	return Time(now.Sub(w.start)), now.UnixNano()
}

// Event is a scheduled callback. Events are pooled: the scheduler
// recycles them after they fire or are cancelled, so the simulation's
// hot path (one or more events per simulated packet per hop) performs
// no allocation in steady state. A generation counter guards recycled
// events against stale EventIDs.
type event struct {
	at  Time
	seq uint64 // tie-break for determinism: FIFO among same-time events
	fn  func()
	// call/arg is the closure-free event form (AtCall): invoking a
	// predeclared func(any) with a pooled argument schedules work
	// without allocating a closure per event.
	call func(any)
	arg  any
	idx  int    // heap index; -1 once popped or cancelled
	gen  uint64 // bumped on recycle; EventIDs from prior lives go stale
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and never matches a live event.
type EventID struct {
	ev  *event
	gen uint64
}

// Scheduler is a discrete-event executor with a virtual clock.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now     Time
	seq     uint64
	pq      []*event // 4-ary min-heap ordered by (at, seq)
	free    []*event // recycled events
	rng     *rand.Rand
	stopped bool
	// Processed counts executed events (for diagnostics and tests).
	Processed uint64
}

// NewScheduler returns a scheduler with its clock at zero and a
// deterministic RNG derived from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now implements Clock.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic RNG. All randomness in a
// simulation must come from here to preserve reproducibility.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past runs the event at the current time (never before: the clock is
// monotonic).
func (s *Scheduler) At(t Time, fn func()) EventID {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	ev := s.newEvent(t)
	ev.fn = fn
	s.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// AtCall schedules call(arg) at absolute virtual time t. It is the
// allocation-free counterpart of At for hot paths: with a predeclared
// call function and a pooled arg, scheduling a packet hop costs no
// heap allocation (the closure that At would need is replaced by the
// (call, arg) pair stored in the pooled event).
func (s *Scheduler) AtCall(t Time, call func(any), arg any) EventID {
	if call == nil {
		panic("sim: AtCall called with nil call")
	}
	ev := s.newEvent(t)
	ev.call = call
	ev.arg = arg
	s.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

func (s *Scheduler) newEvent(t Time) *event {
	if t < s.now {
		t = s.now
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = t
	ev.seq = s.seq
	s.seq++
	return ev
}

// release recycles a fired or cancelled event. Bumping gen makes every
// outstanding EventID for this event stale before the pool can hand it
// out again.
func (s *Scheduler) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.call = nil
	ev.arg = nil
	ev.idx = -1
	s.free = append(s.free, ev)
}

// run fires a popped event.
func (s *Scheduler) run(ev *event) {
	s.now = ev.at
	fn, call, arg := ev.fn, ev.call, ev.arg
	s.release(ev)
	if fn != nil {
		fn()
	} else {
		call(arg)
	}
	s.Processed++
}

// After schedules fn to run d nanoseconds from now.
func (s *Scheduler) After(d Time, fn func()) EventID {
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (s *Scheduler) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.idx < 0 {
		return false
	}
	s.remove(ev.idx)
	s.release(ev)
	return true
}

// Pending reports the number of queued events.
func (s *Scheduler) Pending() int { return len(s.pq) }

// Stop makes the current Run/RunUntil call return after the in-flight
// event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// RunUntil executes events in timestamp order until the queue is empty
// or the next event is after deadline. The clock is left at the later
// of its current value and deadline if the queue drained, otherwise at
// the time of the last executed event.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for len(s.pq) > 0 && !s.stopped {
		if s.pq[0].at > deadline {
			break
		}
		s.run(s.popMin())
	}
	if s.now < deadline && !s.stopped {
		s.now = deadline
	}
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.stopped = false
	for len(s.pq) > 0 && !s.stopped {
		s.run(s.popMin())
	}
}

// Step executes exactly one event and returns true, or returns false if
// the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	s.run(s.popMin())
	return true
}

func (s *Scheduler) String() string {
	return fmt.Sprintf("sim.Scheduler{now=%v pending=%d processed=%d}", s.now, len(s.pq), s.Processed)
}

// The event queue is a hand-rolled 4-ary min-heap ordered by (at, seq).
// Compared to container/heap it halves the tree depth, avoids the
// interface boxing on every push/pop, and keeps the heap index on each
// event so Cancel can remove from the middle; the heap is the hottest
// host-side structure in a simulation (every packet hop is an event).

func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(ev *event) {
	ev.idx = len(s.pq)
	s.pq = append(s.pq, ev)
	s.siftUp(ev.idx)
}

func (s *Scheduler) popMin() *event {
	ev := s.pq[0]
	n := len(s.pq) - 1
	last := s.pq[n]
	s.pq[n] = nil
	s.pq = s.pq[:n]
	if n > 0 {
		s.pq[0] = last
		last.idx = 0
		s.siftDown(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the event at heap index i (Cancel's path).
func (s *Scheduler) remove(i int) {
	n := len(s.pq) - 1
	last := s.pq[n]
	s.pq[n] = nil
	s.pq = s.pq[:n]
	if i == n {
		return
	}
	s.pq[i] = last
	last.idx = i
	s.siftDown(i)
	s.siftUp(i)
}

func (s *Scheduler) siftUp(i int) {
	ev := s.pq[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := s.pq[parent]
		if !less(ev, p) {
			break
		}
		s.pq[i] = p
		p.idx = i
		i = parent
	}
	s.pq[i] = ev
	ev.idx = i
}

func (s *Scheduler) siftDown(i int) {
	ev := s.pq[i]
	n := len(s.pq)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(s.pq[c], s.pq[min]) {
				min = c
			}
		}
		if !less(s.pq[min], ev) {
			break
		}
		s.pq[i] = s.pq[min]
		s.pq[i].idx = i
		i = min
	}
	s.pq[i] = ev
	ev.idx = i
}
