package transport

import (
	"fmt"
	"testing"
	"time"
)

// TestUDPCloseIdempotent is the regression test for the double-Close
// panic: Close used to close(u.done) unconditionally, so a second call
// panicked on the closed channel. Close must be idempotent (callers
// like Chaos.Close and deferred cleanups overlap in practice).
func TestUDPCloseIdempotent(t *testing.T) {
	u, err := NewUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	first := u.Close()
	second := u.Close() // must not panic
	if second != first {
		t.Fatalf("second Close returned %v, first returned %v", second, first)
	}
	// And through a wrapper, as Chaos.Close + a deferred Close does.
	c := NewChaos(u, 1, func() int64 { return 0 }, nil)
	if err := c.Close(); err != first {
		t.Fatalf("Close through Chaos after Close = %v", err)
	}
	if err := c.Close(); err != first {
		t.Fatalf("second Close through Chaos = %v", err)
	}
}

// TestUDPEngineReported checks constructors pick the right engine.
func TestUDPEngineReported(t *testing.T) {
	u, err := NewUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	want := "per-packet"
	switch {
	case UDPGsoSupported():
		want = "gso"
	case MmsgSupported:
		want = "mmsg"
	}
	if got := u.Engine(); got != want {
		t.Fatalf("NewUDP engine = %q, want %q", got, want)
	}
	m, err := NewUDPMmsg(Addr{3, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	wantMmsg := "per-packet"
	if MmsgSupported {
		wantMmsg = "mmsg"
	}
	if got := m.Engine(); got != wantMmsg {
		t.Fatalf("NewUDPMmsg engine = %q, want %q", got, wantMmsg)
	}
	p, err := NewUDPPerPacket(Addr{2, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Engine(); got != "per-packet" {
		t.Fatalf("NewUDPPerPacket engine = %q", got)
	}
}

// sendRecvBurst pushes one n-frame burst a→b and drains it, returning
// the received payloads in arrival order.
func sendRecvBurst(t *testing.T, a, b *UDP, n int) [][]byte {
	t.Helper()
	var burst []Frame
	for i := 0; i < n; i++ {
		burst = append(burst, Frame{Data: []byte(fmt.Sprintf("burst-%02d", i)), Addr: Addr{1, 0}})
	}
	a.SendBurst(burst)
	got := make([]Frame, n)
	var rcvd [][]byte
	deadline := time.Now().Add(2 * time.Second)
	for len(rcvd) < n && time.Now().Before(deadline) {
		k := b.RecvBurst(got)
		for i := 0; i < k; i++ {
			rcvd = append(rcvd, append([]byte(nil), got[i].Data...))
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if len(rcvd) != n {
		t.Fatalf("received %d of %d burst frames", len(rcvd), n)
	}
	return rcvd
}

// TestUDPSendBurstOneSyscall is the acceptance check of the batched
// datapath: on the batched engine, a SendBurst of N>1 frames must issue
// exactly one sendmmsg — one kernel crossing, one multi-message batch
// — while delivering every frame.
func TestUDPSendBurstOneSyscall(t *testing.T) {
	if !MmsgSupported {
		t.Skip("batched engine not compiled in (unsupported platform)")
	}
	a, b := newUDPPair(t)
	const n = 8
	sys0, bat0 := a.Syscalls.Load(), a.MmsgBatches.Load()
	rcvd := sendRecvBurst(t, a, b, n)
	if got := a.Syscalls.Load() - sys0; got != 1 {
		t.Fatalf("SendBurst of %d frames took %d syscalls, want exactly 1", n, got)
	}
	if got := a.MmsgBatches.Load() - bat0; got != 1 {
		t.Fatalf("SendBurst of %d frames made %d mmsg batches, want exactly 1", n, got)
	}
	for i, data := range rcvd {
		if want := fmt.Sprintf("burst-%02d", i); string(data) != want {
			t.Fatalf("frame %d = %q, want %q", i, data, want)
		}
	}
}

// TestUDPRecvBurstBatched checks the RX half: a burst deposited by one
// sendmmsg must be pulled out of the kernel by batched recvmmsg calls
// — observable as MmsgBatches incrementing and strictly fewer RX
// syscalls than packets. The receive races packet arrival, so a single
// attempt may legitimately see packets one at a time; any batching
// within a few attempts proves the path.
func TestUDPRecvBurstBatched(t *testing.T) {
	if !MmsgSupported {
		t.Skip("batched engine not compiled in (unsupported platform)")
	}
	a, b := newUDPPair(t)
	const n = 16
	var pkts, syscalls uint64
	for attempt := 0; attempt < 20; attempt++ {
		sys0 := b.Syscalls.Load()
		sendRecvBurst(t, a, b, n)
		pkts += n
		syscalls += b.Syscalls.Load() - sys0
		if b.MmsgBatches.Load() > 0 {
			if syscalls >= pkts {
				t.Fatalf("RX used %d syscalls for %d packets despite mmsg batching", syscalls, pkts)
			}
			return
		}
	}
	t.Fatalf("no multi-message recvmmsg batch in 20 bursts of %d (%d syscalls / %d packets)",
		n, syscalls, pkts)
}

// TestUDPRxStamps: a frame received on the batched engine carries the
// kernel's receive time, which lies between the send and the receive
// on the wall clock; the per-packet engine reports no stamps and leaves
// RxStamp 0.
func TestUDPRxStamps(t *testing.T) {
	for _, c := range []struct {
		name   string
		newUDP func(Addr, string) (*UDP, error)
		want   bool
	}{
		{"default", NewUDP, MmsgSupported},
		{"mmsg", NewUDPMmsg, MmsgSupported},
		{"per-packet", NewUDPPerPacket, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.newUDP(Addr{0, 0}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := c.newUDP(Addr{1, 0}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := a.AddPeer(Addr{1, 0}, b.BoundAddr().String()); err != nil {
				t.Fatal(err)
			}
			if b.RxStamps() != c.want {
				t.Fatalf("RxStamps() = %v on engine %s, want %v", b.RxStamps(), b.Engine(), c.want)
			}
			before := time.Now().UnixNano()
			a.SendBurst([]Frame{{Data: []byte("stamp"), Addr: Addr{1, 0}}})
			var fr [1]Frame
			for deadline := time.Now().Add(2 * time.Second); b.RecvBurst(fr[:]) == 0; {
				if time.Now().After(deadline) {
					t.Fatal("frame not received")
				}
				time.Sleep(50 * time.Microsecond)
			}
			after := time.Now().UnixNano()
			got := fr[0].RxStamp
			fr[0].Release()
			switch {
			case !c.want && got != 0:
				t.Fatalf("engine %s without stamps set RxStamp %d", b.Engine(), got)
			case c.want && (got < before || got > after):
				t.Fatalf("RxStamp %d outside [send %d, receive %d]", got, before, after)
			}
		})
	}
}

// TestUDPPerPacketCounters pins the fallback engine's cost model: one
// syscall per datagram on each side, and never an mmsg batch — the
// "before" column of the batched-syscall comparison.
func TestUDPPerPacketCounters(t *testing.T) {
	a, err := NewUDPPerPacket(Addr{0, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDPPerPacket(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.AddPeer(Addr{1, 0}, b.BoundAddr().String()); err != nil {
		t.Fatal(err)
	}
	const n = 8
	sys0 := a.Syscalls.Load()
	rcvd := sendRecvBurst(t, a, b, n)
	if got := a.Syscalls.Load() - sys0; got != n {
		t.Fatalf("per-packet SendBurst of %d frames took %d syscalls, want %d", n, got, n)
	}
	if a.MmsgBatches.Load() != 0 || b.MmsgBatches.Load() != 0 {
		t.Fatalf("per-packet engine reported mmsg batches: tx=%d rx=%d",
			a.MmsgBatches.Load(), b.MmsgBatches.Load())
	}
	for i, data := range rcvd {
		if want := fmt.Sprintf("burst-%02d", i); string(data) != want {
			t.Fatalf("frame %d = %q, want %q", i, data, want)
		}
	}
}
