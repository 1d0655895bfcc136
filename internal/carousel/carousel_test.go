package carousel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDeliversAtOrAfterScheduledSlot(t *testing.T) {
	w := New[int](64, 100) // 64 slots x 100ns
	w.Insert(250, 1)
	w.Insert(50, 2)
	w.Insert(620, 3)

	var got []int
	n := w.PollUntil(99, func(_ sim.Time, v int) { got = append(got, v) })
	if n != 1 || got[0] != 2 {
		t.Fatalf("at t=99: got %v", got)
	}
	got = nil
	w.PollUntil(300, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("at t=300: got %v", got)
	}
	got = nil
	w.PollUntil(1000, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("at t=1000: got %v", got)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel should be empty, len=%d", w.Len())
	}
}

func TestPastInsertGoesToHead(t *testing.T) {
	w := New[int](8, 100)
	w.PollUntil(500, func(sim.Time, int) {})
	w.Insert(10, 42) // far in the past
	var got []int
	w.PollUntil(500, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("past insert not delivered immediately: %v", got)
	}
}

func TestBeyondHorizonClamped(t *testing.T) {
	w := New[int](8, 100) // horizon 800ns
	w.Insert(1_000_000, 7)
	var got []int
	w.PollUntil(800, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("beyond-horizon item should clamp to last slot: %v", got)
	}
}

func TestWrapAround(t *testing.T) {
	w := New[int](4, 100) // horizon 400
	for round := 0; round < 10; round++ {
		base := sim.Time(round * 400)
		w.Insert(base+150, round)
		var got []int
		w.PollUntil(base+400, func(_ sim.Time, v int) { got = append(got, v) })
		if len(got) != 1 || got[0] != round {
			t.Fatalf("round %d: got %v", round, got)
		}
	}
}

func TestDrain(t *testing.T) {
	w := New[int](16, 100)
	for i := 0; i < 10; i++ {
		w.Insert(sim.Time(i*137), i)
	}
	var got []int
	n := w.Drain(func(_ sim.Time, v int) { got = append(got, v) })
	if n != 10 || w.Len() != 0 {
		t.Fatalf("drain returned %d, len=%d", n, w.Len())
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("drain lost items: %v", got)
		}
	}
}

func TestNextDeadline(t *testing.T) {
	w := New[int](32, 100)
	if _, ok := w.NextDeadline(); ok {
		t.Fatal("empty wheel should have no deadline")
	}
	w.Insert(900, 1)
	w.Insert(300, 2)
	if d, ok := w.NextDeadline(); !ok || d != 300 {
		t.Fatalf("deadline = %v,%v want 300,true", d, ok)
	}
	// An item beyond the horizon (3200) leaves with the last slot, which
	// starts at 3100: that, not its own time, is when the wheel delivers.
	w = New[int](32, 100)
	w.Insert(1_000_000, 3)
	if d, ok := w.NextDeadline(); !ok || d != 3100 {
		t.Fatalf("deadline of a clamped item = %v,%v want 3100,true", d, ok)
	}
	if n := w.PollUntil(3100, func(sim.Time, int) {}); n != 1 {
		t.Fatalf("PollUntil(NextDeadline()) delivered %d items, want 1", n)
	}
}

// clone copies the wheel so a test can poll one state twice.
func (w *Wheel[T]) clone() *Wheel[T] {
	c := *w
	c.slots = make([][]item[T], len(w.slots))
	for i, s := range w.slots {
		c.slots[i] = append([]item[T](nil), s...)
	}
	c.spare = nil
	return &c
}

// Property: NextDeadline is when the wheel delivers. Over random
// inserts — for times the head has passed, inside the horizon and
// beyond it, against a head that is current or up to two horizons
// stale — PollUntil(NextDeadline()) delivers at least one item and no
// poll short of that deadline's slot delivers any. Where the deadline
// is a slot's start (a clamped item, one behind the head) that is
// PollUntil(NextDeadline()-1); an item inside its slot leaves with the
// slot, up to one slot width before its own time
// (TestNoLossNoEarlyProperty), and NextDeadline keeps its time.
func TestNextDeadlineIsDeliverable(t *testing.T) {
	const slots, gran = 16, 100
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := New[int](slots, gran)
		now := sim.Time(0)
		for op := 0; op < 200; op++ {
			now += sim.Time(rng.Intn(2 * gran))
			switch rng.Intn(8) {
			case 0: // the owner was away: the head goes stale
				now += sim.Time(rng.Intn(2 * slots * gran))
				continue
			case 1, 2:
				w.PollUntil(now, func(sim.Time, int) {})
				continue
			}
			var at sim.Time
			switch rng.Intn(3) {
			case 0:
				at = now - sim.Time(rng.Intn(5*gran))
			case 1:
				at = now + sim.Time(rng.Intn(slots*gran))
			case 2:
				at = now + sim.Time(slots*gran+rng.Intn(20*slots*gran))
			}
			w.Insert(at, op)
			dl, ok := w.NextDeadline()
			if !ok {
				t.Logf("seed %d op %d: no deadline with %d items queued", seed, op, w.Len())
				return false
			}
			slot := dl - (dl-w.headTime)%gran
			if n := w.clone().PollUntil(slot-1, func(sim.Time, int) {}); n != 0 {
				t.Logf("seed %d op %d: deadline %v (slot %v) but PollUntil(%v) delivered %d", seed, op, dl, slot, slot-1, n)
				return false
			}
			if n := w.clone().PollUntil(dl, func(sim.Time, int) {}); n == 0 {
				t.Logf("seed %d op %d: PollUntil(NextDeadline() = %v) delivered nothing, %d queued", seed, op, dl, w.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadDoesNotOverAdvance(t *testing.T) {
	w := New[int](8, 100)
	w.PollUntil(150, func(sim.Time, int) {})
	// An insert for "now" must still be deliverable.
	w.Insert(160, 5)
	var got []int
	w.PollUntil(160, func(_ sim.Time, v int) { got = append(got, v) })
	if len(got) != 1 {
		t.Fatalf("item for current slot lost: %v", got)
	}
}

func TestCounters(t *testing.T) {
	w := New[int](8, 100)
	w.Insert(1, 1)
	w.Insert(2, 2)
	w.PollUntil(1000, func(sim.Time, int) {})
	if w.Inserted != 2 || w.Polled != 1 || w.Clamped != 0 {
		t.Fatalf("counters: inserted=%d polled=%d clamped=%d", w.Inserted, w.Polled, w.Clamped)
	}
	// Head at 1000, horizon 800: 1799 is the last time with a slot of
	// its own, 1800 and beyond are clamped into it.
	w.Insert(1799, 3)
	w.Insert(1800, 4)
	w.Insert(50_000, 5)
	if w.Inserted != 5 || w.Clamped != 2 {
		t.Fatalf("counters: inserted=%d clamped=%d, want 5 and 2", w.Inserted, w.Clamped)
	}
}

// Property: every inserted item is delivered exactly once, and no item
// is delivered before the start of its (clamped) slot.
func TestNoLossNoEarlyProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		w := New[int](128, 64)
		type rec struct {
			at    sim.Time
			count int
		}
		items := make([]rec, len(offsets))
		for i, off := range offsets {
			at := sim.Time(off)
			items[i] = rec{at: at}
			w.Insert(at, i)
		}
		// Poll in 200ns steps up to max time + horizon.
		var mx sim.Time
		for _, it := range items {
			if it.at > mx {
				mx = it.at
			}
		}
		ok := true
		for now := sim.Time(0); now <= mx+w.Horizon(); now += 200 {
			w.PollUntil(now, func(_ sim.Time, v int) {
				it := &items[v]
				it.count++
				// Items within the horizon (all inserted at t=0) may be
				// delivered at most one slot early; items beyond the
				// horizon are clamped by design and have no bound.
				if it.at < w.Horizon() && it.at-now > 64 {
					ok = false
				}
			})
		}
		for _, it := range items {
			if it.count != 1 {
				return false
			}
		}
		return ok && w.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slots should panic")
		}
	}()
	New[int](0, 100)
}

func BenchmarkInsertPoll(b *testing.B) {
	w := New[int](1024, 100)
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		w.Insert(now+500, i)
		now += 100
		w.PollUntil(now, func(sim.Time, int) {})
	}
}

// TestInsertReusesSpareAcrossRing pins the steady-state allocation
// bound: as the head walks the ring, inserts into slot indexes that
// were never touched before must reuse recycled backings from the free
// list instead of growing fresh ones, so a paced workload allocates
// for at most as many slots as are ever non-empty at once.
func TestInsertReusesSpareAcrossRing(t *testing.T) {
	w := New[int](64, 10)
	now := sim.Time(0)
	// Prime: one backing enters the free list.
	w.Insert(now, 1)
	w.PollUntil(now, func(sim.Time, int) {})
	avg := testing.AllocsPerRun(1000, func() {
		now += 10 // head advances one slot per cycle: every index is fresh
		w.Insert(now, 2)
		if w.PollUntil(now, func(sim.Time, int) {}) != 1 {
			t.Fatal("item not delivered")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state paced insert allocates %.3f times per op, want 0", avg)
	}
}

// TestCatchUpAfterLongGapIsBounded pins the cost of a poll that finds
// the head far behind: the walk stops once the wheel is empty and the
// head jumps the rest of the way, so an hour of idleness costs at most
// one revolution, and an empty wheel costs no step at all. Steps is a
// count, not a wall-clock assertion.
func TestCatchUpAfterLongGapIsBounded(t *testing.T) {
	const slots, gran = 4096, 200 * sim.Nanosecond
	const hour = 3600 * sim.Second
	w := New[int](slots, gran)

	// Empty wheel: the re-anchor covers the whole gap, nothing is visited.
	now := sim.Time(hour)
	w.PollUntil(now, func(sim.Time, int) { t.Fatal("empty wheel delivered an item") })
	if w.Steps != 0 {
		t.Fatalf("empty wheel walked %d slots", w.Steps)
	}
	if d := now - w.headTime; d < 0 || d >= gran {
		t.Fatalf("empty wheel: head %v is not within one gran of now %v", w.headTime, now)
	}

	// After the re-anchor a near deadline is placed in its own slot,
	// not clamped: it must not leave before its time.
	w.Insert(now+50*sim.Microsecond, -1)
	if n := w.PollUntil(now+10*sim.Microsecond, func(sim.Time, int) {}); n != 0 {
		t.Fatal("item left 40 µs early: the head was stale at Insert")
	}
	if n := w.PollUntil(now+50*sim.Microsecond, func(sim.Time, int) {}); n != 1 {
		t.Fatal("item not delivered at its deadline")
	}

	// Non-empty wheel, one-hour gap: items spread over the horizon
	// (and one beyond it) leave exactly once, in slot order, within one
	// revolution.
	now += 50 * sim.Microsecond
	offs := []sim.Time{700 * sim.Microsecond, 3 * sim.Microsecond, 90 * sim.Microsecond,
		3 * sim.Microsecond, 5 * sim.Millisecond, 0}
	for i, off := range offs {
		w.Insert(now+off, i)
	}
	before := w.Steps
	now += hour
	var got []int
	var last sim.Time
	n := w.PollUntil(now, func(at sim.Time, v int) {
		// Slot order: deadlines rise, except that the one beyond the
		// horizon was clamped into the last slot.
		if at < last {
			t.Fatalf("item %d (at %v) delivered after a later slot (%v)", v, at, last)
		}
		last = at
		got = append(got, v)
	})
	if n != len(offs) || w.Len() != 0 {
		t.Fatalf("delivered %d of %d, %d left", n, len(offs), w.Len())
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("not exactly-once: %v", got)
		}
	}
	if steps := w.Steps - before; steps > slots {
		t.Fatalf("catch-up walked %d slots, more than one revolution (%d)", steps, slots)
	}
	if d := now - w.headTime; d < 0 || d >= gran {
		t.Fatalf("head %v is not within one gran of now %v", w.headTime, now)
	}
	// The jump must land where the walk would have: on a slot boundary
	// of the original grid, so delivery times do not depend on gaps.
	if w.headTime%gran != 0 {
		t.Fatalf("head %v left the slot grid", w.headTime)
	}
}

// TestPileUpReusesGrownBacking: items piling into one slot (paced
// packets clamped into the last slot, or due in the same granule) grow
// its backing once; after that, repeated pile-ups of the same size, with
// a lone item in another slot beside each, allocate nothing. A wheel
// that puts a spare back into the slot it just emptied strands it there
// once the head moves on, and the next pile-up grows a fresh backing
// from nothing: seven allocations for 64 items. The ring has the core's
// 4096 slots, more than the cycles walk, so no stranded backing comes
// round again to hide that.
func TestPileUpReusesGrownBacking(t *testing.T) {
	const slots, gran, pile = 4096, 10, 64
	w := New[int](slots, gran)
	now := sim.Time(0)
	cycle := func() {
		now += 3 * gran // a different slot index every cycle
		for i := 0; i < pile; i++ {
			w.Insert(now+gran, i)
		}
		w.Insert(now+2*gran, pile)
		if n := w.PollUntil(now+2*gran, func(sim.Time, int) {}); n != pile+1 {
			t.Fatalf("delivered %d of %d items", n, pile+1)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a %d-item pile-up allocates %.3f times after warm-up, want 0", pile, avg)
	}
}
