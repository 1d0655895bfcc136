// Package carousel implements a timing-wheel packet pacer in the style
// of Carousel (Saeed et al., SIGCOMM 2017), which eRPC uses as its
// software rate limiter (paper §5.2). Packets are tagged with an
// absolute transmission time and inserted into a circular array of
// time slots; the dispatch thread polls the wheel each event-loop
// iteration and transmits every packet whose slot has been reached.
//
// Carousel requires a bounded difference between the current time and
// a packet's scheduled time (the wheel horizon); Insert clamps
// out-of-horizon times, mirroring the original design.
package carousel

import (
	"fmt"

	"repro/internal/sim"
)

// Wheel is a timing wheel holding values of type T. It is owned by a
// single dispatch thread and is not goroutine-safe.
type Wheel[T any] struct {
	slots    [][]item[T]
	gran     sim.Time // slot width
	horizon  sim.Time // gran * len(slots)
	headIdx  int      // slot containing headTime
	headTime sim.Time // start time of the head slot
	size     int

	// spare recycles the backing arrays of emptied slots, so the wheel
	// allocates nothing in steady state. A processed slot's array must
	// not be reinstalled while its items are still being delivered
	// (fn may re-insert into the same slot), hence the free list
	// instead of in-place truncation.
	spare [][]item[T]

	// Inserted and Polled count total wheel operations for the CPU
	// cost model and tests; Steps counts the slots PollUntil visited,
	// which is what a poll costs beyond its deliveries. Clamped counts
	// the inserts beyond the horizon: items that leave with the last
	// slot, before their time.
	Inserted uint64
	Polled   uint64
	Steps    uint64
	Clamped  uint64
}

type item[T any] struct {
	at sim.Time
	v  T
}

// New returns a wheel with numSlots slots of width gran. The wheel can
// schedule at most numSlots*gran into the future.
func New[T any](numSlots int, gran sim.Time) *Wheel[T] {
	if numSlots <= 0 || gran <= 0 {
		panic(fmt.Sprintf("carousel: bad wheel shape %d x %v", numSlots, gran))
	}
	return &Wheel[T]{
		slots:   make([][]item[T], numSlots),
		gran:    gran,
		horizon: gran * sim.Time(numSlots),
	}
}

// Len reports the number of queued items.
func (w *Wheel[T]) Len() int { return w.size }

// Horizon reports the furthest future time the wheel can hold,
// relative to its head.
func (w *Wheel[T]) Horizon() sim.Time { return w.horizon }

// Insert schedules v for transmission at absolute time at. Times in
// the past are placed in the head slot; times beyond the horizon are
// clamped to the last slot (Carousel's bounded-horizon rule).
func (w *Wheel[T]) Insert(at sim.Time, v T) {
	w.Inserted++
	off := at - w.headTime
	if off < 0 {
		off = 0
	}
	if off >= w.horizon {
		off = w.horizon - 1
		w.Clamped++
	}
	idx := (w.headIdx + int(off/w.gran)) % len(w.slots)
	if w.slots[idx] == nil {
		// First use of this slot index (or its backing moved to the
		// free list): reuse a recycled backing before growing a fresh
		// one, so steady-state pacing allocates for at most as many
		// slots as are ever non-empty at once — not for every slot
		// index the advancing head walks across the ring.
		w.slots[idx] = w.popSpare()
	}
	w.slots[idx] = append(w.slots[idx], item[T]{at: at, v: v})
	w.size++
}

// PollUntil advances the wheel head to now and calls fn for every item
// whose slot start time is ≤ now, in slot order. It returns the number
// of items delivered. The walk visits slots only while items remain —
// at most len(slots) of them, since every item sits within the horizon
// of the head — and covers the rest of the distance with anchor, so a
// poll costs the same after an idle hour as after an idle microsecond,
// and polling an empty wheel is one compare and a re-anchor.
func (w *Wheel[T]) PollUntil(now sim.Time, fn func(at sim.Time, v T)) int {
	w.Polled++
	delivered := 0
	// The head lives in locals while it walks (fn may Insert, which
	// reads it, so it is stored back around each delivery): the walk
	// over empty slots is the wheel's only per-slot cost.
	idx, t := w.headIdx, w.headTime
	steps := uint64(0)
	for w.size > 0 && t <= now {
		steps++
		if slot := w.slots[idx]; len(slot) > 0 {
			w.headIdx, w.headTime = idx, t
			w.slots[idx] = w.popSpare()
			for _, it := range slot {
				fn(it.at, it.v)
			}
			delivered += len(slot)
			w.size -= len(slot)
			w.pushSpare(slot)
		}
		// Stop advancing once the head slot covers 'now': future
		// inserts for the current instant must still land here.
		if now < t+w.gran {
			break
		}
		t += w.gran
		if idx++; idx == len(w.slots) {
			idx = 0
		}
	}
	w.headIdx, w.headTime = idx, t
	w.Steps += steps
	w.anchor(now)
	return delivered
}

// anchor moves the head of an empty wheel to the slot covering now, in
// O(1) and onto the slot boundary a slot-by-slot walk would reach.
// Against a stale head every deadline looks beyond the horizon, is
// clamped to the last slot, and leaves at the next poll instead of at
// its time: the owner keeps the head fresh by polling every iteration,
// empty wheel or not. A non-empty wheel is left alone — only the walk
// in PollUntil may move a head past queued items, because it delivers
// them.
func (w *Wheel[T]) anchor(now sim.Time) {
	if w.size > 0 || now < w.headTime+w.gran {
		return
	}
	n := (now - w.headTime) / w.gran
	w.headIdx = (w.headIdx + int(n%sim.Time(len(w.slots)))) % len(w.slots)
	w.headTime += n * w.gran
}

// popSpare takes a recycled slot backing (or nil, growing on demand).
func (w *Wheel[T]) popSpare() []item[T] {
	if n := len(w.spare); n > 0 {
		s := w.spare[n-1]
		w.spare[n-1] = nil
		w.spare = w.spare[:n-1]
		return s
	}
	return nil
}

// pushSpare recycles a processed slot's backing array, clearing the
// items so the wheel holds no stale references.
func (w *Wheel[T]) pushSpare(slot []item[T]) {
	var zero item[T]
	for i := range slot {
		slot[i] = zero
	}
	w.spare = append(w.spare, slot[:0])
}

// Drain removes and returns every queued item regardless of time, in
// slot order. eRPC uses this when destroying a session after a node
// failure (Appendix B: wait for the rate limiter to empty).
func (w *Wheel[T]) Drain(fn func(at sim.Time, v T)) int {
	n := 0
	for i := 0; i < len(w.slots); i++ {
		idx := (w.headIdx + i) % len(w.slots)
		slot := w.slots[idx]
		if len(slot) == 0 {
			continue
		}
		w.slots[idx] = w.popSpare()
		for _, it := range slot {
			fn(it.at, it.v)
			n++
		}
		w.pushSpare(slot)
	}
	w.size = 0
	return n
}

// NextDeadline returns the time the next PollUntil must reach to
// deliver something and true, or zero and false if the wheel is empty.
// That is the earliest time in the first occupied slot when it lies in
// the slot, and the slot's start when it does not: an item clamped into
// the last slot leaves with that slot, however far beyond the horizon
// its own time is, and one inserted for a time the head had passed
// waits in the head slot. Behind a stale head the answer is in the
// past: the next poll delivers. It scans slots from the head;
// O(numSlots) worst case, used only to programme an idle wait.
func (w *Wheel[T]) NextDeadline() (sim.Time, bool) {
	if w.size == 0 {
		return 0, false
	}
	start := w.headTime
	for i := 0; i < len(w.slots); i++ {
		idx := (w.headIdx + i) % len(w.slots)
		if len(w.slots[idx]) > 0 {
			min := w.slots[idx][0].at
			for _, it := range w.slots[idx][1:] {
				if it.at < min {
					min = it.at
				}
			}
			if min < start || min >= start+w.gran {
				return start, true
			}
			return min, true
		}
		start += w.gran
	}
	return 0, false
}
