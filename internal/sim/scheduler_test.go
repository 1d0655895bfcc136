package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		s.After(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
}

func TestSchedulerFIFOAmongEqualTimes(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.At(10, func() { ran++ })
	s.At(20, func() { ran++ })
	s.At(30, func() { ran++ })
	s.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d, want 2", ran)
	}
	if s.Now() != 20 {
		t.Fatalf("clock = %v, want 20", s.Now())
	}
	s.RunUntil(100)
	if ran != 3 {
		t.Fatalf("ran %d, want 3", ran)
	}
	if s.Now() != 100 {
		t.Fatalf("clock should advance to deadline when drained, got %v", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	id := s.At(10, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("first Cancel should succeed")
	}
	if s.Cancel(id) {
		t.Fatal("second Cancel should fail")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestSchedulerCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler(1)
	var got []Time
	ids := make([]EventID, 0, 20)
	for i := 1; i <= 20; i++ {
		ids = append(ids, s.At(Time(i), func() { got = append(got, s.Now()) }))
	}
	// Cancel every third event.
	for i := 2; i < 20; i += 3 {
		s.Cancel(ids[i])
	}
	s.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("out of order after cancels: %v", got)
	}
	if len(got) != 14 {
		t.Fatalf("ran %d events, want 14", len(got))
	}
}

func TestSchedulerPastEventRunsNow(t *testing.T) {
	s := NewScheduler(1)
	s.At(100, func() {
		s.At(50, func() {
			if s.Now() != 100 {
				t.Errorf("past event ran at %v, want clamped to 100", s.Now())
			}
		})
	})
	s.Run()
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			s.After(1, recur)
		}
	}
	s.After(1, recur)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want 100", s.Now())
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	ran := 0
	s.At(1, func() { ran++; s.Stop() })
	s.At(2, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("ran %d, want 1 (Stop should halt)", ran)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := NewScheduler(seed)
		var got []Time
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 200; i++ {
			s.At(Time(rng.Intn(1000)), func() { got = append(got, s.Now()) })
		}
		s.Run()
		return got
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatal("nondeterministic run length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, execution order is a stable sort of
// the delays.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(1)
		var got []Time
		for _, d := range delays {
			s.After(Time(d), func() { got = append(got, s.Now()) })
		}
		s.Run()
		if len(got) != len(delays) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWallClockMonotonic(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	b := c.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

// TestWallClockNowUnix: a NowUnix reading lies between the clock's
// Now readings taken around it, and its Unix time between the wall
// clock's readings around it.
func TestWallClockNowUnix(t *testing.T) {
	var c UnixClock = NewWallClock()
	before, wallBefore := c.Now(), time.Now().UnixNano()
	got, unix := c.NowUnix()
	after, wallAfter := c.Now(), time.Now().UnixNano()
	if got < before || got > after {
		t.Fatalf("NowUnix reading %v outside [%v, %v]", got, before, after)
	}
	if unix < wallBefore || unix > wallAfter {
		t.Fatalf("NowUnix Unix time %d outside [%d, %d]", unix, wallBefore, wallAfter)
	}
	if _, ok := Clock(NewScheduler(1)).(UnixClock); ok {
		t.Fatal("the virtual clock claims a place on CLOCK_REALTIME")
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(10, tick)
		}
	}
	b.ResetTimer()
	s.After(10, tick)
	s.Run()
}
