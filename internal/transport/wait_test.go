package transport

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// udpKind is one way to build a UDP pair: a sends to b as 1:0, b to a
// as 0:0, both closed with the test.
type udpKind struct {
	name string
	pair func(t *testing.T) (a, b *UDP)
}

// udpKinds lists the receiving sockets this host can run: the batched
// engine with offload ("gso") and without ("mmsg") where compiled in,
// the per-packet engine, and one shard of an SO_REUSEPORT pair
// ("sharded-2").
func udpKinds() []udpKind {
	on := func(newUDP func(Addr, string) (*UDP, error)) func(*testing.T) (*UDP, *UDP) {
		return func(t *testing.T) (*UDP, *UDP) { return newUDPPairOn(t, newUDP) }
	}
	var kinds []udpKind
	if UDPGsoSupported() {
		kinds = append(kinds, udpKind{"gso", on(NewUDP)})
	}
	if MmsgSupported {
		kinds = append(kinds, udpKind{"mmsg", on(NewUDPMmsg)})
	}
	return append(kinds, udpKind{"per-packet", on(NewUDPPerPacket)}, udpKind{"sharded-2", shardedPair})
}

// shardedPair binds two shards of one address and returns a sender and
// the shard its flow lands on, found with a probe datagram.
func shardedPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	shards, err := ListenUDPShards(1, "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewUDP(Addr{0, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		for _, s := range shards {
			s.Close()
		}
	})
	if err := a.AddPeer(Addr{1, 0}, shards[0].BoundAddr().String()); err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		if err := s.AddPeer(Addr{0, 0}, a.BoundAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	send1(a, Addr{1, 0}, []byte("probe"))
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		for _, s := range shards {
			if _, _, ok := recv1(s); ok {
				return a, s
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("probe reached no shard")
	return nil, nil
}

// waitFor runs Wait(d) on b and returns its answer and how long it took.
func waitFor(b *UDP, d time.Duration) (bool, time.Duration) {
	t0 := time.Now()
	ok := b.Wait(d)
	return ok, time.Since(t0)
}

// TestUDPWait pins the owner's one wait on every kind of socket: a
// packet ends it already received, the deadline ends it with nothing,
// an earlier Interrupt makes it return at once (and is consumed), a
// concurrent Interrupt ends it, and so does Close. Wait(0) only looks.
func TestUDPWait(t *testing.T) {
	const long = 10 * time.Second // no case may get near it
	for _, c := range udpKinds() {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.pair(t)
			if ok := b.Wait(0); ok {
				t.Fatal("Wait(0) on an idle socket reported frames or an interrupt")
			}

			go func() {
				time.Sleep(20 * time.Millisecond)
				send1(a, Addr{1, 0}, []byte("wake"))
			}()
			ok, took := waitFor(b, long)
			if !ok || took >= long/2 {
				t.Fatalf("packet: Wait = %v after %v", ok, took)
			}
			if len(b.rx) == 0 {
				t.Fatal("packet: Wait returned without the datagram received")
			}
			if f, _, ok := recv1(b); !ok || string(f) != "wake" {
				t.Fatalf("packet: RecvBurst after Wait got %q, %v", f, ok)
			}

			ok, took = waitFor(b, 20*time.Millisecond)
			if ok || took < 20*time.Millisecond || took > 2*time.Second {
				t.Fatalf("deadline: Wait(20ms) = %v after %v", ok, took)
			}

			b.Interrupt()
			ok, took = waitFor(b, long)
			if !ok || took > time.Second {
				t.Fatalf("earlier Interrupt: Wait = %v after %v", ok, took)
			}
			if ok, _ := waitFor(b, 5*time.Millisecond); ok {
				t.Fatal("an Interrupt ended two waits")
			}

			go func() {
				time.Sleep(20 * time.Millisecond)
				b.Interrupt()
			}()
			ok, took = waitFor(b, long)
			if !ok || took >= long/2 {
				t.Fatalf("concurrent Interrupt: Wait = %v after %v", ok, took)
			}

			go func() {
				time.Sleep(20 * time.Millisecond)
				b.Close()
			}()
			ok, took = waitFor(b, long)
			if ok || took >= long/2 {
				t.Fatalf("Close: Wait = %v after %v", ok, took)
			}
		})
	}
}

// TestUDPSetWakeStartsOneGoroutine pins the wake of an owner that never
// waits: a UDP starts no goroutine of its own, the first SetWake starts
// exactly one and later ones none, it calls fn when a datagram arrives
// and leaves the datagram to RecvBurst, and Close joins it. It counts
// the goroutines SetWake started, not all of them, and gives each count
// a moment to settle: Close returns once wakeLoop has signalled its
// exit, and the goroutine may still be on its way out then (as one of
// an earlier test may be at the start).
func TestUDPSetWakeStartsOneGoroutine(t *testing.T) {
	a, b := newUDPPair(t)
	if g := wakeLoops(0); g != 0 {
		t.Fatalf("two transports run %d wake goroutines, want none", g)
	}
	ch := make(chan struct{}, 1)
	wake := func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	b.SetWake(wake)
	b.SetWake(wake)
	if g := wakeLoops(1); g != 1 {
		t.Fatalf("SetWake twice started %d wake goroutines, want 1", g)
	}
	send1(a, Addr{1, 0}, []byte("x"))
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("wake did not fire")
	}
	if f, _, ok := recv1(b); !ok || string(f) != "x" {
		t.Fatalf("RecvBurst after the wake got %q, %v", f, ok)
	}
	b.Close()
	if g := wakeLoops(0); g != 0 {
		t.Fatalf("%d wake goroutines left after Close", g)
	}
}

// wakeLoops counts the goroutines SetWake started, running wakeLoop or
// not yet scheduled (a stack then shows only the go statement's
// wrapper). It looks again for up to a second while the count is not
// want, and returns the last count.
func wakeLoops(want int) int {
	buf := make([]byte, 1<<16)
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		g := strings.Count(string(buf[:n]), "created by repro/internal/transport.(*UDP).SetWake")
		if g == want || time.Now().After(deadline) {
			return g
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPInterruptFromManyGoroutines interrupts an owner that waits in
// a loop from several goroutines at once: no Wait may sleep through
// them (each wait is a second long, the interrupts keep coming), and
// once they stop one more Interrupt still ends the next Wait. It is
// meant for the race detector.
func TestUDPInterruptFromManyGoroutines(t *testing.T) {
	for _, c := range udpKinds() {
		t.Run(c.name, func(t *testing.T) {
			_, b := c.pair(t)
			const goroutines, each = 4, 2000
			done := make(chan struct{})
			var left atomic.Int32
			left.Store(goroutines)
			for g := 0; g < goroutines; g++ {
				go func() {
					for i := 0; i < each; i++ {
						b.Interrupt()
						if i%64 == 0 {
							runtime.Gosched()
						}
					}
					if left.Add(-1) == 0 {
						close(done)
					}
				}()
			}
			for {
				select {
				case <-done:
					b.Interrupt()
					if ok, took := waitFor(b, 10*time.Second); !ok || took > time.Second {
						t.Fatalf("after the storm: Wait = %v after %v", ok, took)
					}
					return
				default:
				}
				if _, took := waitFor(b, time.Second); took >= time.Second {
					select {
					case <-done: // the storm ended while this Wait slept
					default:
						t.Fatalf("a Wait slept %v through interrupts still coming", took)
					}
				}
			}
		})
	}
}
