package transport

import (
	"fmt"
	"net"
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

// TestUDPLeftoverBounded drives sustained load through a real socket on
// every engine in receives that can split into more frames than the
// burst that takes them: bursts of 64 equal-size frames (one GRO
// supersegment on the gso engine) drained 16 at a time. What a receive
// leaves over waits for the next bursts; it must never exceed one
// receive window, and FIFO order must hold across receives.
func TestUDPLeftoverBounded(t *testing.T) {
	for _, c := range udpKinds() {
		if c.name == "sharded-2" {
			continue // one socket each side is the point here
		}
		t.Run(c.name, func(t *testing.T) {
			a, b := c.pair(t)
			const rounds, perRound = 200, SocketBurst
			burst := make([]Frame, perRound)
			got := make([]Frame, 16)
			seq := uint32(0)
			for r := 0; r < rounds; r++ {
				for i := range burst {
					burst[i] = Frame{Data: []byte{byte(seq + uint32(i)), byte((seq + uint32(i)) >> 8), 0, 0}, Addr: Addr{1, 0}}
				}
				a.SendBurst(burst)
				deadline := time.Now().Add(2 * time.Second)
				for end := seq + perRound; seq < end; {
					k := b.RecvBurst(got)
					if len(b.rx) > udpRxBatch {
						t.Fatalf("round %d: leftover holds %d frames, more than a receive window", r, len(b.rx))
					}
					for i := 0; i < k; i++ {
						if d := got[i].Data; uint32(d[0])|uint32(d[1])<<8 != seq&0xFFFF {
							t.Fatalf("round %d: frame out of order: % x, want seq %d", r, d, seq)
						}
						got[i].Release()
						seq++
					}
					if k == 0 {
						if time.Now().After(deadline) {
							t.Fatalf("round %d: received %d of %d", r, seq-(end-perRound), perRound)
						}
						b.Wait(time.Millisecond)
					}
				}
			}
		})
	}
}

// TestUDPRecvAllocFree pins the steady-state receive on every engine: a
// RecvBurst that receives a burst plus the release of its frames
// allocates nothing. The bursts are queued on the socket before the
// count starts, so only the receiving side is counted.
func TestUDPRecvAllocFree(t *testing.T) {
	if DebugEnabled {
		t.Skip("erpcdebug sanitizer bookkeeping allocates; zero-alloc contract holds in release builds only")
	}
	for _, c := range udpKinds() {
		if c.name == "sharded-2" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			a, b := c.pair(t)
			const runs, k = 50, 8
			burst := make([]Frame, k)
			for i := range burst {
				burst[i] = Frame{Data: make([]byte, 48), Addr: Addr{1, 0}}
			}
			for r := 0; r < runs+1; r++ { // AllocsPerRun adds a warm-up run
				a.SendBurst(burst)
			}
			got := make([]Frame, k)
			deadline := time.Now().Add(5 * time.Second)
			avg := testing.AllocsPerRun(runs, func() {
				for left := k; left > 0; {
					n := b.RecvBurst(got[:left])
					ReleaseBurst(got[:n])
					left -= n
					if n == 0 && time.Now().After(deadline) {
						t.Fatal("queued bursts did not arrive")
					}
				}
			})
			if avg != 0 {
				t.Fatalf("receive plus release allocates %.2f times per burst, want 0", avg)
			}
		})
	}
}

// TestUDPDropsCountKernelOverflow blasts a socket that does not receive
// past its receive buffer, drains it, and sends one more datagram: the
// kernel's drop count that datagram carries (SO_RXQ_OVFL) makes Drops
// equal what was sent less what was received. The per-packet engine
// cannot see the count and keeps Drops at 0.
func TestUDPDropsCountKernelOverflow(t *testing.T) {
	for _, c := range udpKinds() {
		if c.name == "sharded-2" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			_, u := c.pair(t)
			if u.RcvBuf() <= 0 {
				t.Fatalf("RcvBuf() = %d, want the granted receive buffer", u.RcvBuf())
			}
			// The smallest buffer the kernel grants: a few datagrams.
			if err := u.conn.SetReadBuffer(1); err != nil {
				t.Fatal(err)
			}
			conn, err := net.DialUDP("udp", nil, u.BoundAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			pkt := make([]byte, udpHdrLen+48)
			var sent, received uint64
			send := func() {
				if _, err := conn.Write(pkt); err == nil {
					sent++
				}
			}
			var fr [SocketBurst]Frame
			drain := func() {
				for idle := 0; idle < 3; {
					n := u.RecvBurst(fr[:])
					if n == 0 {
						idle++
						u.Wait(5 * time.Millisecond)
						continue
					}
					received += uint64(n)
					ReleaseBurst(fr[:n])
				}
			}
			for i := 0; i < 2000; i++ {
				send()
			}
			drain()
			if received >= sent {
				t.Fatalf("received all %d datagrams: the blast did not overflow the buffer", sent)
			}
			send() // carries the count of the drops before it
			drain()
			want := sent - received
			if c.name == "per-packet" {
				want = 0
			}
			if got := u.Drops.Load(); got != want {
				t.Fatalf("Drops = %d, want %d (sent %d, received %d)", got, want, sent, received)
			}
		})
	}
}
