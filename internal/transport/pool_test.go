package transport

import (
	"sync"
	"testing"
)

// TestPoolOwnerSharedRace hammers the pool's two release paths from
// their legal contexts at once — the owner goroutine on the lock-free
// Get/Put fast path, foreign goroutines on PutShared/GetShared — and is
// meaningful chiefly under -race: the owner free list must never be
// reachable from a foreign goroutine, and the shared list must be fully
// synchronized.
func TestPoolOwnerSharedRace(t *testing.T) {
	p := NewPool(256, 512)
	const (
		iters    = 20_000
		foreign  = 3
		burstLen = 8
	)
	ch := make(chan []byte, 128)
	var wg sync.WaitGroup

	// Foreign releasers: one PutShared per buffer, or a burst of them
	// back to back.
	for g := 0; g < foreign; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var burst [][]byte
			for b := range ch {
				if g == 0 {
					p.PutShared(b)
					continue
				}
				burst = append(burst, b)
				if len(burst) == burstLen {
					for _, b := range burst {
						p.PutShared(b)
					}
					burst = burst[:0]
				}
			}
			for _, b := range burst {
				p.PutShared(b)
			}
		}(g)
	}
	// A foreign borrower exercising the shared-only Get path.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := p.GetShared()
			p.PutShared(b)
		}
	}()

	// Owner: lock-free Get/Put, shipping every third buffer to the
	// foreign releasers (the RX-frame hand-off pattern).
	for i := 0; i < iters; i++ {
		b := p.Get()
		if i%3 == 0 {
			ch <- b
		} else {
			p.Put(b)
		}
	}
	close(ch)
	close(stop)
	wg.Wait()

	st := p.Stats()
	if st.FastPuts == 0 || st.SharedPuts == 0 {
		t.Fatalf("both paths should have run: %+v", st)
	}
}

// TestPoolSingleOwnerAllocFree pins the owner fast path: once warm, a
// Get/Put cycle performs zero heap allocations and zero mutex
// acquisitions (no refills — the free list never runs dry — and no
// shared puts).
func TestPoolSingleOwnerAllocFree(t *testing.T) {
	if DebugEnabled {
		t.Skip("erpcdebug sanitizer bookkeeping allocates; zero-alloc contract holds in release builds only")
	}
	p := NewPool(1500, 64)
	p.Put(p.Get()) // warm: one buffer on the free list
	st0 := p.Stats()
	avg := testing.AllocsPerRun(10_000, func() {
		b := p.Get()
		p.Put(b)
	})
	if avg != 0 {
		t.Fatalf("single-owner Get/Put allocates %.3f times per op, want 0", avg)
	}
	st := p.Stats()
	if st.News != st0.News {
		t.Fatalf("pool allocated buffers on the warm fast path: News %d -> %d", st0.News, st.News)
	}
	if st.Refills != 0 || st.SharedPuts != 0 {
		t.Fatalf("fast path touched the mutex: %d refills, %d shared puts", st.Refills, st.SharedPuts)
	}
}

// BenchmarkPoolGetPut measures the single-owner fast path (the
// steady-state per-frame cost of a per-endpoint pool). It must run at
// 0 B/op, 0 allocs/op, and never acquire the pool mutex — Refills and
// SharedPuts both stay zero.
func BenchmarkPoolGetPut(b *testing.B) {
	if DebugEnabled {
		b.Skip("erpcdebug sanitizer bookkeeping allocates; zero-alloc contract holds in release builds only")
	}
	p := NewPool(1500, 64)
	p.Put(p.Get())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := p.Get()
		p.Put(buf)
	}
	b.StopTimer()
	st := p.Stats()
	if st.Refills != 0 || st.SharedPuts != 0 {
		b.Fatalf("single-owner path acquired the mutex: %d refills, %d shared puts", st.Refills, st.SharedPuts)
	}
	if st.News != 1 {
		b.Fatalf("single-owner path allocated: News = %d, want the 1 warm-up buffer", st.News)
	}
}

// TestReleaseBurstMixedFrames releases bursts that mix the two frame
// flavors the datapath produces — owner-path pooled frames and unpooled
// zero-copy aliases (the TX batch's msgbuf-backed frames and the UDP
// transport's RX frames, whose Release must touch no pool at all).
// ReleaseBurst must route each flavor down its own path and leave
// aliased bytes untouched.
func TestReleaseBurstMixedFrames(t *testing.T) {
	pOwn := NewPool(128, 256) // owned by this goroutine

	alias := make([]byte, 64) // stands in for a msgbuf backing array
	for i := range alias {
		alias[i] = byte(i)
	}

	const rounds = 5_000
	for i := 0; i < rounds; i++ {
		burst := []Frame{
			PooledFrame(pOwn.Get(), Addr{1, 0}, pOwn),
			{Data: alias, Addr: Addr{3, 0}}, // zero-copy alias: no pool
			PooledFrame(pOwn.Get(), Addr{1, 1}, pOwn),
			{Data: alias[32:], Addr: Addr{3, 1}},
		}
		ReleaseBurst(burst)
		for j := range burst {
			if burst[j].Data != nil || burst[j].pool != nil {
				t.Fatalf("round %d: frame %d not cleared by ReleaseBurst: %+v", i, j, burst[j])
			}
		}
	}

	for i := range alias {
		if alias[i] != byte(i) {
			t.Fatalf("zero-copy alias byte %d corrupted: %d", i, alias[i])
		}
	}
	// The aliased frames' buffers must never have entered the pool.
	if st := pOwn.Stats(); st.FastPuts != 2*rounds || st.SharedPuts != 0 {
		t.Fatalf("owner frames took the wrong path: %+v", st)
	}
}
