package transport

import (
	"fmt"
	"testing"
	"time"
)

// TestPoolRecycles checks the Get/Put cycle: a released buffer is
// handed out again instead of allocating a new one.
func TestPoolRecycles(t *testing.T) {
	p := NewPool(64, 4)
	b := append(p.Get(), "hello"...)
	if p.News() != 1 {
		t.Fatalf("News = %d after first Get", p.News())
	}
	p.Put(b)
	b2 := p.Get()
	if p.News() != 1 {
		t.Fatalf("News = %d after recycled Get (pool did not recycle)", p.News())
	}
	if cap(b2) < 64 {
		t.Fatalf("recycled cap = %d", cap(b2))
	}
	// Foreign (undersized) buffers must be rejected, on both paths.
	p.Put(make([]byte, 8))
	if got := p.Get(); cap(got) < 64 {
		t.Fatalf("pool handed out a foreign undersized buffer (cap %d)", cap(got))
	}
	p.PutShared(make([]byte, 8))
	if got := p.GetShared(); cap(got) < 64 {
		t.Fatalf("shared path handed out a foreign undersized buffer (cap %d)", cap(got))
	}
}

// TestPoolSharedHandoff checks the cross-goroutine slow path: buffers
// returned via PutShared must come back to the owner through a refill
// swap, without fresh allocation, and the counters must attribute the
// traffic to the right paths.
func TestPoolSharedHandoff(t *testing.T) {
	p := NewPool(64, 8)
	bufs := [][]byte{p.Get(), p.Get(), p.Get()}
	for _, b := range bufs {
		p.PutShared(b) // as a foreign goroutine would
	}
	news0 := p.News()
	for i := 0; i < 3; i++ {
		if b := p.Get(); cap(b) < 64 {
			t.Fatalf("refilled Get %d returned cap %d", i, cap(b))
		}
	}
	if p.News() != news0 {
		t.Fatalf("owner Get allocated (News %d -> %d) with %d buffers on the shared list",
			news0, p.News(), len(bufs))
	}
	st := p.Stats()
	if st.SharedPuts != 3 || st.Refills != 1 || st.FastPuts != 0 {
		t.Fatalf("stats = %+v, want 3 shared puts, 1 refill, 0 fast puts", st)
	}
}

// TestReleaseBurstCoalesces checks that ReleaseBurst recycles a whole
// burst of shared frames (one pool lock per run) and leaves the frames
// cleared, mixing in owner-path and unpooled frames.
func TestReleaseBurstCoalesces(t *testing.T) {
	p := NewPool(32, 16)
	frames := []Frame{
		SharedFrame(append(p.Get(), 1), Addr{1, 0}, p),
		SharedFrame(append(p.Get(), 2), Addr{1, 0}, p),
		{Data: []byte("unpooled")},
		PooledFrame(append(p.Get(), 3), Addr{1, 0}, p),
		SharedFrame(append(p.Get(), 4), Addr{1, 0}, p),
	}
	ReleaseBurst(frames)
	for i := range frames {
		if frames[i].Data != nil || frames[i].pool != nil {
			t.Fatalf("frame %d not cleared: %+v", i, frames[i])
		}
	}
	st := p.Stats()
	if st.SharedPuts != 3 {
		t.Fatalf("SharedPuts = %d, want 3", st.SharedPuts)
	}
	if st.FastPuts != 1 {
		t.Fatalf("FastPuts = %d, want 1", st.FastPuts)
	}
	// All four pooled buffers must be reachable again: one on the owner
	// free list, three via a refill.
	news0 := p.News()
	for i := 0; i < 4; i++ {
		if b := p.Get(); cap(b) < 32 {
			t.Fatalf("Get %d after ReleaseBurst: cap %d", i, cap(b))
		}
	}
	if p.News() != news0 {
		t.Fatalf("ReleaseBurst lost buffers: News %d -> %d", news0, p.News())
	}
}

// TestPoolLimit bounds the retained free list.
func TestPoolLimit(t *testing.T) {
	p := NewPool(16, 2)
	bufs := [][]byte{p.Get(), p.Get(), p.Get(), p.Get()}
	for _, b := range bufs {
		p.Put(b)
	}
	if len(p.free) != 2 {
		t.Fatalf("free list holds %d buffers, limit is 2", len(p.free))
	}
}

// TestFrameRelease checks the re-post path and that Release is safe on
// zero and double-released frames.
func TestFrameRelease(t *testing.T) {
	p := NewPool(32, 4)
	f := PooledFrame(append(p.Get(), 1, 2, 3), Addr{1, 2}, p)
	f.Release()
	if f.Data != nil {
		t.Fatal("Release kept Data")
	}
	f.Release() // double release: no-op
	var zero Frame
	zero.Release() // zero frame: no-op
	if got := p.Get(); cap(got) < 32 {
		t.Fatal("released buffer did not return to the pool")
	}
}

// TestUDPBurstRoundtrip sends a burst of frames and receives them via
// RecvBurst, checking payloads, source addresses and buffer recycling.
func TestUDPBurstRoundtrip(t *testing.T) {
	a, b := newUDPPair(t)
	const n = 10
	var burst []Frame
	for i := 0; i < n; i++ {
		burst = append(burst, Frame{Data: []byte(fmt.Sprintf("frame-%d", i)), Addr: Addr{1, 0}})
	}
	a.SendBurst(burst)

	got := make([]Frame, 4) // smaller than the burst: drain in chunks
	var rcvd [][]byte
	deadline := time.Now().Add(2 * time.Second)
	for len(rcvd) < n && time.Now().Before(deadline) {
		k := b.RecvBurst(got)
		for i := 0; i < k; i++ {
			if got[i].Addr != (Addr{0, 0}) {
				t.Fatalf("frame from %v, want 0:0", got[i].Addr)
			}
			rcvd = append(rcvd, append([]byte(nil), got[i].Data...))
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if len(rcvd) != n {
		t.Fatalf("received %d of %d burst frames", len(rcvd), n)
	}
	// UDP on loopback preserves order.
	for i, data := range rcvd {
		if want := fmt.Sprintf("frame-%d", i); string(data) != want {
			t.Fatalf("frame %d = %q, want %q", i, data, want)
		}
	}
	// The per-packet reader keeps one RX buffer posted beyond the
	// packets actually moved (the batched engine posts SegBufs and
	// copies into pool buffers only on arrival); past that, the pool
	// must recycle.
	if b.rxPool.News() > n+1 {
		t.Fatalf("RX pool allocated %d buffers for %d packets", b.rxPool.News(), n)
	}
}

// TestUDPBurstDropsBad checks SendBurst skips unknown peers and
// oversized frames without failing the rest of the burst.
func TestUDPBurstDropsBad(t *testing.T) {
	a, b := newUDPPair(t)
	a.SendBurst([]Frame{
		{Data: []byte("to-nobody"), Addr: Addr{77, 7}},
		{Data: make([]byte, a.MTU()+1), Addr: Addr{1, 0}},
		{Data: []byte("ok"), Addr: Addr{1, 0}},
	})
	fr, _ := recvWait(t, b)
	if string(fr) != "ok" {
		t.Fatalf("got %q, want the surviving frame", fr)
	}
}

// TestUDPRingBounded is the regression test for the unbounded
// retention bug: the old implementation resliced rring = rring[1:],
// keeping the backing array alive and regrowing it forever. The ring
// is now a fixed array indexed by head/tail; sustained load far beyond
// its capacity must neither grow memory nor break FIFO order, and
// overflow must count drops.
func TestUDPRingBounded(t *testing.T) {
	u, err := NewUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Close joins the reader goroutine, making this test goroutine the
	// rxPool's sole owner; the ring and pool outlive the socket, so the
	// injection below still exercises the real publish/drain path.
	u.Close()
	// Sustained load, injected deterministically at the reader
	// goroutine's ring-push point in bursts of 16: many fill-and-drain
	// rounds, far more packets than udpRingCap in total.
	const rounds = 32
	const perRound = udpRingCap / 2
	buf := make([]Frame, 64)
	seq := uint32(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i += 16 {
			var burst [16]Frame
			for j := range burst {
				b := append(u.rxPool.Get(), byte(seq), byte(seq>>8), byte(seq>>16))
				burst[j] = SharedFrame(b, Addr{0, 0}, u.rxPool)
				seq++
			}
			u.publish(burst[:])
		}
		got := 0
		for got < perRound {
			k := u.RecvBurst(buf)
			if k == 0 {
				t.Fatalf("round %d: ring empty after %d of %d", r, got, perRound)
			}
			for i := 0; i < k; i++ {
				want := uint32(r*perRound + got + i)
				if d := buf[i].Data; uint32(d[0])|uint32(d[1])<<8|uint32(d[2])<<16 != want {
					t.Fatalf("round %d: frame %d out of order: % x, want seq %d", r, got+i, d, want)
				}
				buf[i].Release()
			}
			got += k
		}
	}
	if u.Drops.Load() != 0 {
		t.Fatalf("drops = %d with the ring never more than half full", u.Drops.Load())
	}
	// Capacity is structurally bounded: the ring is a fixed array and
	// the RX pool must have stopped allocating once primed — total
	// buffers ever created are bounded by ring occupancy, not by the
	// number of packets moved (the old resliced ring kept its backing
	// array alive and regrew it forever).
	if pending := u.tail - u.head; pending != 0 {
		t.Fatalf("ring claims %d pending packets after full drain", pending)
	}
	if u.rxPool.News() > perRound+64 {
		t.Fatalf("RX pool created %d buffers for %d packets: not recycling", u.rxPool.News(), seq)
	}
}

// TestUDPRingOverflowDrops fills the ring past capacity without
// draining: overflow must be dropped and counted, the buffer re-posted
// to the pool, and the ring must never exceed its fixed capacity.
func TestUDPRingOverflowDrops(t *testing.T) {
	u, err := NewUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	u.Close() // join the reader: this goroutine now owns the rxPool
	// Bursts of 24 do not divide the capacity: the burst that meets the
	// end of the ring is cut, part published and part dropped.
	const extra = 100
	for i := 0; i < udpRingCap+extra; {
		var burst [24]Frame
		k := min(len(burst), udpRingCap+extra-i)
		for j := range burst[:k] {
			burst[j] = SharedFrame(append(u.rxPool.Get(), 1), Addr{0, 0}, u.rxPool)
		}
		u.publish(burst[:k])
		i += k
	}
	if pending := u.tail - u.head; pending != udpRingCap {
		t.Fatalf("ring holds %d, want exactly capacity %d", pending, udpRingCap)
	}
	if u.Drops.Load() != extra {
		t.Fatalf("drops = %d, want %d", u.Drops.Load(), extra)
	}
	// A dropped packet's buffer is re-posted, so draining one slot and
	// refilling must not allocate.
	news := u.rxPool.News()
	fr := make([]Frame, 1)
	u.RecvBurst(fr)
	fr[0].Release()
	u.publish([]Frame{SharedFrame(u.rxPool.Get(), Addr{0, 0}, u.rxPool)})
	if u.rxPool.News() != news {
		t.Fatalf("overflow leaked buffers: pool News %d -> %d", news, u.rxPool.News())
	}
}
