package transport

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFlowHashSymmetric(t *testing.T) {
	f := func(an, ap, bn, bp uint16) bool {
		a := Addr{an, ap}
		b := Addr{bn, bp}
		return FlowHash(a, b) == FlowHash(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlowHashSpreads(t *testing.T) {
	seen := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		seen[FlowHash(Addr{0, uint16(i)}, Addr{1, 0})] = true
	}
	if len(seen) < 90 {
		t.Fatalf("only %d distinct hashes for 100 flows", len(seen))
	}
}

func TestAddrString(t *testing.T) {
	if got := (Addr{3, 7}).String(); got != "3:7" {
		t.Fatalf("String = %q", got)
	}
}

func newUDPPair(t testing.TB) (*UDP, *UDP) {
	t.Helper()
	return newUDPPairOn(t, NewUDP)
}

// newUDPPairOn is newUDPPair on the engine newUDP picks: a at 0:0 and b
// at 1:0, each the other's peer, both closed with the test.
func newUDPPairOn(t testing.TB, newUDP func(Addr, string) (*UDP, error)) (*UDP, *UDP) {
	t.Helper()
	a, err := newUDP(Addr{0, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	if err := a.AddPeer(Addr{1, 0}, b.BoundAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(Addr{0, 0}, a.BoundAddr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// send1 and recv1 move single frames as bursts of one. recv1 copies the
// payload out and releases the frame.
func send1(tr Transport, dst Addr, frame []byte) {
	tr.SendBurst([]Frame{{Data: frame, Addr: dst}})
}

func recv1(tr Transport) ([]byte, Addr, bool) {
	var f [1]Frame
	if tr.RecvBurst(f[:]) == 0 {
		return nil, Addr{}, false
	}
	data, from := append([]byte(nil), f[0].Data...), f[0].Addr
	f[0].Release()
	return data, from, true
}

func recvWait(t *testing.T, u *UDP) ([]byte, Addr) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if f, from, ok := recv1(u); ok {
			return f, from
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("timed out waiting for frame")
	return nil, Addr{}
}

func TestUDPRoundtrip(t *testing.T) {
	a, b := newUDPPair(t)
	send1(a, Addr{1, 0}, []byte("hello erpc"))
	f, from := recvWait(t, b)
	if string(f) != "hello erpc" {
		t.Fatalf("payload = %q", f)
	}
	if from != (Addr{0, 0}) {
		t.Fatalf("from = %v", from)
	}
	send1(b, Addr{0, 0}, []byte("pong"))
	f, _ = recvWait(t, a)
	if string(f) != "pong" {
		t.Fatalf("payload = %q", f)
	}
}

func TestUDPWakeFires(t *testing.T) {
	a, b := newUDPPair(t)
	ch := make(chan struct{}, 1)
	b.SetWake(func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	})
	send1(a, Addr{1, 0}, []byte("x"))
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("wake did not fire")
	}
	if f, _, ok := recv1(b); !ok || len(f) != 1 {
		t.Fatal("frame not delivered after wake")
	}
}

func TestUDPUnknownPeerDropped(t *testing.T) {
	a, _ := newUDPPair(t)
	send1(a, Addr{99, 99}, []byte("void")) // must not panic or block
}

func TestUDPOversizeDropped(t *testing.T) {
	a, b := newUDPPair(t)
	send1(a, Addr{1, 0}, make([]byte, a.MTU()+1))
	send1(a, Addr{1, 0}, []byte("ok"))
	f, _ := recvWait(t, b)
	if string(f) != "ok" {
		t.Fatalf("oversize frame should be dropped, got %q", f)
	}
}

func TestUDPCloseStopsRecv(t *testing.T) {
	a, err := NewUDP(Addr{0, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := recv1(a); ok {
		t.Fatal("RecvBurst after Close returned a frame")
	}
}
