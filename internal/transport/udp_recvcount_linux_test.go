//go:build linux && (amd64 || arm64)

package transport

import (
	"testing"
	"time"
)

// RxCount counts the receives a UDP's engine makes: every recvmmsg on
// the batched engine, every run of reads (up to EAGAIN or the limit) on
// the per-packet engine, and of those the ones that staged nothing.
type RxCount struct{ Calls, Empty int }

// countReceives wraps u's receive closures so that every receive its
// engine makes is counted. The count is the owner's, like the closures.
func countReceives(u *UDP) *RxCount {
	c := new(RxCount)
	count := func(staged int) {
		c.Calls++
		if len(u.rx) == staged {
			c.Empty++
		}
	}
	switch e := u.eng.(type) {
	case *batchEngine:
		recv := e.rxFn // rxCtl calls it too
		e.rxFn = func(fd uintptr) bool {
			ok := recv(fd)
			c.Calls++
			if e.rxN <= 0 {
				c.Empty++
			}
			return ok
		}
	case *perPacketEngine:
		ctl, wait := e.rxCtl, e.rxWait
		e.rxCtl = func(fd uintptr) { staged := len(u.rx); ctl(fd); count(staged) }
		e.rxWait = func(fd uintptr) bool { staged := len(u.rx); ok := wait(fd); count(staged); return ok }
	}
	return c
}

// waitStaged runs the probe (Wait(0), again until it finds something)
// or a parked Wait and returns how many frames it staged.
func waitStaged(t *testing.T, b *UDP, park bool) int {
	t.Helper()
	if park {
		if !b.Wait(2 * time.Second) {
			t.Fatal("parked Wait staged nothing")
		}
	} else {
		for deadline := time.Now().Add(2 * time.Second); !b.Wait(0); {
			if time.Now().After(deadline) {
				t.Fatal("probe staged nothing")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return len(b.rx) - b.rxHead
}

// drainAll receives until the socket and the leftover are empty.
func drainAll(b *UDP) {
	frames := make([]Frame, SocketBurst)
	for quiet := 0; quiet < 3; {
		if n := b.RecvBurst(frames); n > 0 {
			ReleaseBurst(frames[:n])
			quiet = 0
			continue
		}
		quiet++
		time.Sleep(time.Millisecond)
	}
}

// TestUDPRecvBurstAfterDrainingWait pins the receive a Wait leaves to
// the next pass, on every engine: after a Wait (the probe, or a parked
// one) whose receive drained the socket, RecvBurst hands out exactly
// the frames that receive staged and makes no receive of its own; after
// a Wait whose receive filled its window, RecvBurst receives; and a
// RecvBurst after no Wait, or after a Wait that staged nothing, tops up
// as it always has.
func TestUDPRecvBurstAfterDrainingWait(t *testing.T) {
	for _, c := range udpKinds() {
		if c.name == "sharded-2" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			a, b := c.pair(t)
			recvs := countReceives(b)
			win := rxWindow(b)
			frames := make([]Frame, win+SocketBurst)

			for _, park := range []bool{false, true} {
				// Drained: three datagrams, less than any window.
				sendUncoalesced(a, "d", 3)
				staged := waitStaged(t, b, park)
				before := recvs.Calls
				if n := b.RecvBurst(frames); n != staged || recvs.Calls != before {
					t.Fatalf("park=%v: after a Wait that drained the socket, RecvBurst returned %d frames (the Wait staged %d) and made %d receives, want 0",
						park, n, staged, recvs.Calls-before)
				}
				ReleaseBurst(frames[:staged])
				drainAll(b)

				// Filled: one datagram more than the window.
				sendUncoalesced(a, "f", win+1)
				if staged := waitStaged(t, b, park); staged != win {
					t.Fatalf("park=%v: Wait staged %d frames, want a full window (%d)", park, staged, win)
				}
				before = recvs.Calls
				n := b.RecvBurst(frames)
				if recvs.Calls == before || n != win+1 {
					t.Fatalf("park=%v: after a Wait that filled its window, RecvBurst returned %d frames of %d and made %d receives, want at least 1",
						park, n, win+1, recvs.Calls-before)
				}
				ReleaseBurst(frames[:n])
				drainAll(b)
			}

			// No Wait: RecvBurst receives.
			sendUncoalesced(a, "r", 3)
			before := recvs.Calls
			if n := b.RecvBurst(frames); n != 3 || recvs.Calls == before {
				t.Fatalf("RecvBurst alone returned %d frames of 3 and made %d receives, want at least 1", n, recvs.Calls-before)
			}
			ReleaseBurst(frames[:3])

			// A Wait ended by an Interrupt staged nothing: the next
			// RecvBurst receives what arrived since.
			b.Interrupt()
			if !b.Wait(0) {
				t.Fatal("Wait(0) after Interrupt returned false")
			}
			sendUncoalesced(a, "i", 3)
			before = recvs.Calls
			if n := b.RecvBurst(frames); n != 3 || recvs.Calls == before {
				t.Fatalf("RecvBurst after an interrupted Wait returned %d frames of 3 and made %d receives, want at least 1", n, recvs.Calls-before)
			}
			ReleaseBurst(frames[:3])
		})
	}
}
