package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// gsoPair binds two transports on the batched engine with segmentation
// offload ("gso"), or skips the test where that is unavailable
// (unsupported platform, or a kernel without UDP_SEGMENT/UDP_GRO).
func gsoPair(t testing.TB) (*UDP, *UDP) {
	t.Helper()
	if !UDPGsoSupported() {
		t.Skip("no segmentation offload (unsupported platform, or kernel without UDP_SEGMENT/UDP_GRO)")
	}
	a, b := newUDPPair(t)
	if a.Engine() != "gso" || b.Engine() != "gso" {
		t.Fatalf("engines = %q/%q, want gso/gso", a.Engine(), b.Engine())
	}
	return a, b
}

// TestUDPGsoSendBurstOneSupersegment is the acceptance check of the
// segmentation-offload datapath: a SendBurst of 8 equal-size frames to
// one peer must leave as exactly one syscall carrying exactly one
// 8-segment supersegment — one kernel crossing AND one kernel stack
// traversal — while delivering every frame intact.
func TestUDPGsoSendBurstOneSupersegment(t *testing.T) {
	a, b := gsoPair(t)
	const n = 8
	sys0, seg0, bat0 := a.Syscalls.Load(), a.GsoSegments.Load(), a.MmsgBatches.Load()
	rcvd := sendRecvBurst(t, a, b, n)
	if got := a.Syscalls.Load() - sys0; got != 1 {
		t.Fatalf("SendBurst of %d same-peer frames took %d syscalls, want exactly 1", n, got)
	}
	if got := a.GsoSegments.Load() - seg0; got != n {
		t.Fatalf("SendBurst of %d same-peer frames coalesced %d segments, want exactly %d (one supersegment)", n, got, n)
	}
	if got := a.MmsgBatches.Load() - bat0; got != 1 {
		t.Fatalf("SendBurst of %d frames moved %d multi-datagram batches, want exactly 1", n, got)
	}
	for i, data := range rcvd {
		if want := fmt.Sprintf("burst-%02d", i); string(data) != want {
			t.Fatalf("frame %d = %q, want %q", i, data, want)
		}
	}
}

// TestUDPGroCoalescedReceive checks the RX half: a supersegment sent
// over loopback must reach the receiver coalesced (UDP_GRO), be split
// at the cmsg stride, and yield every datagram with the right payload
// and source — observable as GroBatches incrementing and fewer RX
// syscalls than packets. Like the recvmmsg test, the receive races
// arrival, so coalescing is asserted over a few attempts.
func TestUDPGroCoalescedReceive(t *testing.T) {
	a, b := gsoPair(t)
	const n = 16
	var pkts, syscalls uint64
	for attempt := 0; attempt < 20; attempt++ {
		sys0 := b.Syscalls.Load()
		rcvd := sendRecvBurst(t, a, b, n)
		for i, data := range rcvd {
			if want := fmt.Sprintf("burst-%02d", i); string(data) != want {
				t.Fatalf("frame %d = %q, want %q", i, data, want)
			}
		}
		pkts += n
		syscalls += b.Syscalls.Load() - sys0
		if b.GroBatches.Load() > 0 {
			if syscalls >= pkts {
				t.Fatalf("RX used %d syscalls for %d packets despite GRO coalescing", syscalls, pkts)
			}
			return
		}
	}
	t.Fatalf("no GRO-coalesced receive in 20 bursts of %d (%d syscalls / %d packets)", n, syscalls, pkts)
}

// recvTags drains n frames from u and returns the tag each begins with,
// in arrival order.
func recvTags(t *testing.T, u *UDP, n int) []string {
	t.Helper()
	got := make([]Frame, n)
	var tags []string
	deadline := time.Now().Add(2 * time.Second)
	for len(tags) < n && time.Now().Before(deadline) {
		k := u.RecvBurst(got)
		for i := 0; i < k; i++ {
			tags = append(tags, string(got[i].Data[:2]))
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if len(tags) != n {
		t.Fatalf("received %v, want %d frames", tags, n)
	}
	return tags
}

// tagged is a size-byte payload beginning with tag.
func tagged(tag string, size int) []byte {
	p := make([]byte, size)
	copy(p, tag)
	return p
}

// TestUDPGsoRunsFormInEngine: the engine, not its caller, groups a
// burst into runs. A server's responses and credit returns to one
// client, alternating, leave as two supersegments of three in one
// syscall; the short last packet of one message and the full and short
// packets of the next leave as queued, in three messages, since joining
// the first short run would send the second message's last packet
// before its full one.
func TestUDPGsoRunsFormInEngine(t *testing.T) {
	a, b := gsoPair(t)
	for _, c := range []struct {
		name      string
		sizes     []int
		wantOrder string
		wantSegs  uint64
	}{
		{"responses and CRs", []int{40, 16, 40, 16, 40, 16}, "r0r2r4r1r3r5", 6},
		{"short last of X, full of Y, short last of Y", []int{300, 1000, 300}, "r0r1r2", 0},
	} {
		var burst []Frame
		for i, n := range c.sizes {
			burst = append(burst, Frame{Data: tagged(fmt.Sprintf("r%d", i), n), Addr: b.LocalAddr()})
		}
		sys0, seg0 := a.Syscalls.Load(), a.GsoSegments.Load()
		a.SendBurst(burst)
		if got := a.Syscalls.Load() - sys0; got != 1 {
			t.Fatalf("%s: %d syscalls, want 1", c.name, got)
		}
		if got := a.GsoSegments.Load() - seg0; got != c.wantSegs {
			t.Fatalf("%s: %d frames in supersegments, want %d", c.name, got, c.wantSegs)
		}
		if got := strings.Join(recvTags(t, b, len(burst)), ""); got != c.wantOrder {
			t.Fatalf("%s: received %s, want %s", c.name, got, c.wantOrder)
		}
	}
}

// TestUDPGsoMixedBurst drives the run-coalescing logic through its
// edges in one burst: two interleaved peers (a frame joins its peer's
// run past another peer's frames), mixed frame sizes to the same peer
// (runs break on stride change), and an unknown destination (dropped
// without disturbing the runs). Every surviving frame must arrive
// intact at the right peer, seven of them in three supersegments.
func TestUDPGsoMixedBurst(t *testing.T) {
	a, b := gsoPair(t)
	c, err := NewUDP(Addr{7, 7}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.AddPeer(c.LocalAddr(), c.BoundAddr().String()); err != nil {
		t.Fatal(err)
	}

	burst := []Frame{
		{Data: tagged("b0", 32), Addr: b.LocalAddr()},
		{Data: tagged("b1", 32), Addr: b.LocalAddr()},
		{Data: tagged("c0", 32), Addr: c.LocalAddr()},
		{Data: tagged("b2", 32), Addr: b.LocalAddr()},  // joins b0 b1 past c0
		{Data: tagged("b3", 200), Addr: b.LocalAddr()}, // size change: a new run
		{Data: tagged("b4", 200), Addr: b.LocalAddr()},
		{Data: tagged("xx", 16), Addr: Addr{9, 9}},    // unknown peer: dropped
		{Data: tagged("c1", 32), Addr: c.LocalAddr()}, // joins c0
	}
	seg0 := a.GsoSegments.Load()
	a.SendBurst(burst)
	if got := a.GsoSegments.Load() - seg0; got != 7 {
		t.Fatalf("%d frames in supersegments, want 7 (b0-b2, b3-b4, c0-c1)", got)
	}

	wantB := map[string]bool{"b0": true, "b1": true, "b2": true, "b3": true, "b4": true}
	wantC := map[string]bool{"c0": true, "c1": true}
	drain := func(u *UDP, want map[string]bool) {
		got := make([]Frame, 8)
		deadline := time.Now().Add(2 * time.Second)
		for len(want) > 0 && time.Now().Before(deadline) {
			k := u.RecvBurst(got)
			for i := 0; i < k; i++ {
				tag := string(got[i].Data[:2])
				if !want[tag] {
					t.Fatalf("unexpected or duplicate frame %q at %v", tag, u.LocalAddr())
				}
				delete(want, tag)
				got[i].Release()
			}
			if k == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		if len(want) > 0 {
			t.Fatalf("missing frames at %v: %v", u.LocalAddr(), want)
		}
	}
	drain(b, wantB)
	drain(c, wantC)
}

// TestUDPGsoLargeBurst pushes a burst bigger than the TX window and
// with MTU-sized frames (where gsoMaxBytes caps run length) through
// the engine: everything must arrive, in runs of whatever size the
// caps allow, with GsoSegments accounting for all coalesced frames.
func TestUDPGsoLargeBurst(t *testing.T) {
	a, b := gsoPair(t)
	const n = 100
	size := a.MTU()
	var burst []Frame
	for i := 0; i < n; i++ {
		p := make([]byte, size)
		p[0], p[1] = byte(i), byte(i>>8)
		burst = append(burst, Frame{Data: p, Addr: b.LocalAddr()})
	}
	seg0 := a.GsoSegments.Load()
	a.SendBurst(burst)
	if got := a.GsoSegments.Load() - seg0; got != n {
		t.Fatalf("GsoSegments grew by %d for %d equal same-peer frames, want %d", got, n, n)
	}
	got := make([]Frame, 32)
	seen := make(map[int]bool)
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < n && time.Now().Before(deadline) {
		k := b.RecvBurst(got)
		for i := 0; i < k; i++ {
			if ln := len(got[i].Data); ln != size {
				t.Fatalf("received %d-byte frame, want %d", ln, size)
			}
			seen[int(got[i].Data[0])|int(got[i].Data[1])<<8] = true
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if len(seen) != n {
		t.Fatalf("received %d distinct frames of %d", len(seen), n)
	}
}
