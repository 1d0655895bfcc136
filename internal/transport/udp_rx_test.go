package transport

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// mkSegs fills buf with n wire segments of the given stride: each
// carries a source-address prefix (node 10+i, port 1) and a payload of
// repeated byte(i). Returns the total receive length.
func mkSegs(buf []byte, n, stride int) int {
	for i := 0; i < n; i++ {
		pkt := buf[i*stride : (i+1)*stride]
		pkt[0], pkt[1] = 0, byte(10+i)
		pkt[2], pkt[3] = 0, 1
		for j := udpHdrLen; j < stride; j++ {
			pkt[j] = byte(i)
		}
	}
	return n * stride
}

// newSplitUDP builds a UDP whose leftover is driven solely by the test
// goroutine, with no socket: splitRxSegs runs on the receiving
// goroutine, so a test calling it directly is that goroutine.
func newSplitUDP() *UDP {
	u := &UDP{
		local:     Addr{Node: 1},
		mtu:       DefaultUDPMTU,
		peers:     map[Addr]udpDest{},
		rx:        make([]Frame, 0, udpRxBatch),
		txScratch: make([]byte, udpHdrLen+DefaultUDPMTU),
	}
	u.eng = newPerPacketEngine(u)
	return u
}

// drainRx takes every frame the splits left over, as RecvBurst would.
func drainRx(u *UDP) []Frame {
	out := make([]Frame, len(u.rx)-u.rxHead)
	u.takeRx(out)
	return out
}

// TestSplitRxSegsAliasesSupersegment pins the zero-copy receive
// contract: a coalesced receive is split into frames that alias the
// receive buffer at the stride (no per-segment copy), each capped at
// its own segment and carrying the receive's kernel stamp, and Release
// leaves the bytes alone.
func TestSplitRxSegsAliasesSupersegment(t *testing.T) {
	u := newSplitUDP()
	buf := make([]byte, 1024)
	const stride = 20
	ln := mkSegs(buf, 3, stride)
	orig := append([]byte(nil), buf[:ln]...)

	const stamp = 1_700_000_000_123_456_789
	if nseg := u.splitRxSegs(buf, ln, stride, stamp); nseg != 3 {
		t.Fatalf("splitRxSegs = %d, want 3", nseg)
	}
	if got := u.GroAliasedSegs.Load(); got != 3 {
		t.Fatalf("GroAliasedSegs = %d, want 3", got)
	}

	frames := drainRx(u)
	if len(frames) != 3 {
		t.Fatalf("split delivered %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		want := buf[i*stride+udpHdrLen : (i+1)*stride]
		if &f.Data[0] != &want[0] {
			t.Fatalf("segment %d was copied: frame base %p, buffer base %p", i, &f.Data[0], &want[0])
		}
		if cap(f.Data) != len(f.Data) {
			t.Fatalf("segment %d reaches past itself: len %d, cap %d", i, len(f.Data), cap(f.Data))
		}
		if f.Addr != (Addr{Node: uint16(10 + i), Port: 1}) {
			t.Fatalf("segment %d from %v", i, f.Addr)
		}
		if f.RxStamp != stamp {
			t.Fatalf("segment %d carries kernel stamp %d, want the receive's %d", i, f.RxStamp, stamp)
		}
		if !bytes.Equal(f.Data, bytes.Repeat([]byte{byte(i)}, stride-udpHdrLen)) {
			t.Fatalf("segment %d payload mismatch", i)
		}
	}
	ReleaseBurst(frames)
	for i := range frames {
		if frames[i].Data != nil {
			t.Fatalf("frame %d kept its Data after Release", i)
		}
	}
	if !bytes.Equal(buf[:ln], orig) {
		t.Fatal("Release wrote to the receive buffer")
	}

	// An uncoalesced datagram aliases the buffer as well, and counts
	// as no GRO segment.
	if nseg := u.splitRxSegs(buf, stride, 0, 0); nseg != 1 {
		t.Fatalf("single datagram split into %d", nseg)
	}
	if f := drainRx(u); len(f) != 1 || &f[0].Data[0] != &buf[udpHdrLen] {
		t.Fatal("single datagram was copied")
	}
	if got := u.GroAliasedSegs.Load(); got != 3 {
		t.Fatalf("GroAliasedSegs = %d after an uncoalesced datagram, want 3", got)
	}
}

// TestSplitRxSegsMalformed hardens the split against hostile or
// degenerate kernel-reported geometry: zero/negative/oversized
// strides, short trailing segments, sub-header and oversized segments
// and out-of-range lengths must neither panic nor mis-slice.
func TestSplitRxSegsMalformed(t *testing.T) {
	u := newSplitUDP()
	buf := make([]byte, 1<<16)

	t.Run("zero-stride", func(t *testing.T) {
		ln := mkSegs(buf, 1, 24)
		if nseg := u.splitRxSegs(buf, ln, 0, 42); nseg != 1 {
			t.Fatalf("splitRxSegs = %d, want one whole-buffer segment", nseg)
		}
		if frames := drainRx(u); len(frames) != 1 || len(frames[0].Data) != 20 || frames[0].RxStamp != 42 {
			t.Fatalf("bad frames: %+v", frames)
		}
	})
	t.Run("negative-stride", func(t *testing.T) {
		ln := mkSegs(buf, 1, 24)
		if nseg := u.splitRxSegs(buf, ln, -7, 0); nseg != 1 {
			t.Fatalf("negative stride mishandled: %d", nseg)
		}
		drainRx(u)
	})
	t.Run("oversized-stride", func(t *testing.T) {
		ln := mkSegs(buf, 1, 24)
		if nseg := u.splitRxSegs(buf, ln, 4096, 0); nseg != 1 {
			t.Fatalf("oversized stride mishandled: %d", nseg)
		}
		drainRx(u)
	})
	t.Run("short-trailing-segment", func(t *testing.T) {
		ln := mkSegs(buf, 2, 16)
		// Trailing runt: 6 bytes, a valid (sub-stride) wire segment.
		copy(buf[ln:ln+6], []byte{0, 99, 0, 1, 0xEE, 0xEE})
		if nseg := u.splitRxSegs(buf, ln+6, 16, 0); nseg != 3 {
			t.Fatalf("splitRxSegs = %d, want 3", nseg)
		}
		frames := drainRx(u)
		if len(frames) != 3 || len(frames[2].Data) != 2 || frames[2].Addr.Node != 99 {
			t.Fatalf("trailing segment mis-sliced: %d frames", len(frames))
		}
	})
	t.Run("sub-header-trailing-segment", func(t *testing.T) {
		ln := mkSegs(buf, 2, 16)
		buf[ln], buf[ln+1] = 0xAA, 0xBB // 2-byte runt: no full prefix
		if nseg := u.splitRxSegs(buf, ln+2, 16, 0); nseg != 3 {
			t.Fatalf("splitRxSegs = %d, want 3", nseg)
		}
		if frames := drainRx(u); len(frames) != 2 {
			t.Fatalf("delivered %d frames, want 2 (runt dropped)", len(frames))
		}
	})
	t.Run("oversized-datagram", func(t *testing.T) {
		// A datagram longer than the wire MTU is dropped, whether it
		// arrives alone or as the segments of a coalesced receive.
		big := udpHdrLen + DefaultUDPMTU + 1
		ln := mkSegs(buf, 2, big)
		if nseg := u.splitRxSegs(buf, big, 0, 0); nseg != 1 {
			t.Fatalf("splitRxSegs = %d, want 1", nseg)
		}
		if nseg := u.splitRxSegs(buf, ln, big, 0); nseg != 2 {
			t.Fatalf("splitRxSegs = %d, want 2", nseg)
		}
		if frames := drainRx(u); len(frames) != 0 {
			t.Fatalf("delivered %d oversized frames", len(frames))
		}
	})
	t.Run("length-beyond-buffer", func(t *testing.T) {
		if nseg := u.splitRxSegs(buf, len(buf)+1, 16, 0); nseg != 0 {
			t.Fatalf("out-of-range length mishandled: %d", nseg)
		}
		if nseg := u.splitRxSegs(buf, 0, 16, 0); nseg != 0 {
			t.Fatalf("zero length mishandled: %d", nseg)
		}
		if nseg := u.splitRxSegs(nil, 16, 16, 0); nseg != 0 {
			t.Fatalf("nil buffer mishandled: %d", nseg)
		}
		if frames := drainRx(u); len(frames) != 0 {
			t.Fatalf("degenerate receives enqueued %d frames", len(frames))
		}
	})
}

// TestSplitRxSegsBatchBoundary splits receives that yield exactly as
// many segments as the leftover holds, one fewer, one more and several
// times more: the leftover takes what fits, in order, and the rest is
// dropped.
func TestSplitRxSegsBatchBoundary(t *testing.T) {
	for _, n := range []int{udpRxBatch - 1, udpRxBatch, udpRxBatch + 1, 3*udpRxBatch + 7} {
		u := newSplitUDP()
		buf := make([]byte, 1<<16)
		const stride = 6
		for i := 0; i < n; i++ {
			pkt := buf[i*stride:]
			pkt[0], pkt[1], pkt[2], pkt[3] = byte(i>>8), byte(i), 0, 1
		}
		if nseg := u.splitRxSegs(buf, n*stride, stride, 0); nseg != n {
			t.Fatalf("n=%d: splitRxSegs = %d, want %d", n, nseg, n)
		}
		want := min(n, udpRxBatch)
		if got := u.GroAliasedSegs.Load(); got != uint64(want) {
			t.Fatalf("n=%d: GroAliasedSegs = %d, want %d (the staged segments)", n, got, want)
		}
		frames := drainRx(u)
		if len(frames) != want {
			t.Fatalf("n=%d: leftover delivered %d frames, want %d", n, len(frames), want)
		}
		for i, f := range frames {
			if int(f.Addr.Node) != i || len(f.Data) != stride-udpHdrLen {
				t.Fatalf("n=%d: frame %d is from node %d with %d bytes", n, i, f.Addr.Node, len(f.Data))
			}
		}
		ReleaseBurst(frames)
	}
}

// TestUDPCloseReleasesLeftover leaves segments of a supersegment over
// from a burst when the transport closes: RecvBurst after Close returns
// nothing and drops them, so the leftover holds no frame and references
// no window bytes any more, while the frames the burst did take stay
// intact until released.
func TestUDPCloseReleasesLeftover(t *testing.T) {
	u, err := NewUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const segs, stride, taken = 16, 20, 5
	win := u.rxWin[u.rxCur]
	if nseg := u.splitRxSegs(win, mkSegs(win, segs, stride), stride, 0); nseg != segs {
		t.Fatalf("splitRxSegs = %d, want %d", nseg, segs)
	}
	u.rxCur ^= 1 // as the receive that staged them would
	var burst [taken]Frame
	if n := u.RecvBurst(burst[:]); n != taken {
		t.Fatalf("RecvBurst took %d of the leftover, want %d", n, taken)
	}
	for i, f := range burst {
		if &f.Data[0] != &win[i*stride+udpHdrLen] || f.Addr != (Addr{Node: uint16(10 + i), Port: 1}) {
			t.Fatalf("frame %d does not alias its segment (from %v)", i, f.Addr)
		}
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	var more [64]Frame
	if n := u.RecvBurst(more[:]); n != 0 {
		t.Fatalf("RecvBurst after Close returned %d frames", n)
	}
	if len(u.rx) != 0 || u.rxHead != 0 {
		t.Fatalf("leftover holds %d frames after Close", len(u.rx)-u.rxHead)
	}
	for i, f := range u.rx[:cap(u.rx)] {
		if f.Data != nil {
			t.Fatalf("leftover slot %d still references window bytes", i)
		}
	}
	for i, f := range burst {
		if !bytes.Equal(f.Data, bytes.Repeat([]byte{byte(i)}, stride-udpHdrLen)) {
			t.Fatalf("taken frame %d changed after Close", i)
		}
	}
	ReleaseBurst(burst[:])
}

// rxWindow is how many datagrams one receive of u's engine takes at
// most when Wait makes it: a recvmmsg's slots, or the per-packet
// engine's SocketBurst reads.
func rxWindow(u *UDP) int {
	if _, ok := u.eng.(*perPacketEngine); ok {
		return SocketBurst
	}
	return udpRxSlots
}

// sendUncoalesced sends n datagrams named after tag from a to 1:0,
// each longer than the last and in a SendBurst of its own, so no engine
// coalesces two of them (GRO merges only equal-size runs), and returns
// the payloads in order.
func sendUncoalesced(a *UDP, tag string, n int) []string {
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("%s-%03d-%s", tag, i, strings.Repeat("x", i))
		send1(a, Addr{1, 0}, []byte(want[i]))
	}
	time.Sleep(2 * time.Millisecond) // loopback delivers well within
	return want
}

// TestUDPBurstSpansTwoReceives pins the two receive windows on every
// engine: a Wait(0) probe fills its window with burst A, whose last
// datagram stays in the socket, burst B arrives, and one RecvBurst
// returns A's leftover and then the rest of A and B, which its own
// receive fetched. That receive must land in the other window, so every
// frame of the burst reads back byte-identical and in order while the
// burst holds them all. A probe that fills its window did not drain the
// socket, so RecvBurst tops up after it as after any receive.
func TestUDPBurstSpansTwoReceives(t *testing.T) {
	for _, c := range udpKinds() {
		if c.name == "sharded-2" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			a, b := c.pair(t)
			win := rxWindow(b)
			want := sendUncoalesced(a, "a", win+1)
			for deadline := time.Now().Add(2 * time.Second); !b.Wait(0); {
				if time.Now().After(deadline) {
					t.Fatal("probe staged nothing")
				}
				time.Sleep(time.Millisecond)
			}
			if got := len(b.rx) - b.rxHead; got != win {
				t.Fatalf("probe staged %d frames, want a full window of A's (%d)", got, win)
			}
			// Five frames in one burst: one receive takes them with A's
			// last on every engine.
			const k = 5
			burst := make([]Frame, k)
			for i := range burst {
				want = append(want, fmt.Sprintf("b-%03d", i))
				burst[i] = Frame{Data: []byte(want[len(want)-1]), Addr: Addr{1, 0}}
			}
			a.SendBurst(burst)
			time.Sleep(2 * time.Millisecond)

			frames := make([]Frame, win+SocketBurst)
			n := b.RecvBurst(frames)
			if n <= win+1 {
				t.Fatalf("RecvBurst returned %d frames: A's leftover (%d), and its own receive fetched none of B", n, win)
			}
			var got []string
			for i := 0; i < n; i++ {
				got = append(got, string(frames[i].Data))
			}
			ReleaseBurst(frames[:n])
			for deadline := time.Now().Add(2 * time.Second); len(got) < len(want); {
				if time.Now().After(deadline) {
					t.Fatalf("received %d of %d frames", len(got), len(want))
				}
				m := b.RecvBurst(frames)
				for i := 0; i < m; i++ {
					got = append(got, string(frames[i].Data))
				}
				ReleaseBurst(frames[:m])
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// FuzzSplitRxSegs drives the supersegment split with arbitrary receive
// bytes and strides — the gso receive path's analogue of FuzzRxBurst.
// The invariants: no panic, no more frames than the leftover holds, and
// every frame a slice of the receive's own bytes past a wire prefix,
// no longer than a wire datagram (even when the split outgrows the
// leftover and drops segments mid-split).
func FuzzSplitRxSegs(f *testing.F) {
	u := newSplitUDP()
	buf := make([]byte, 1<<16)

	seed := make([]byte, 60)
	for i := range seed {
		seed[i] = byte(i)
	}
	f.Add(seed, 20)
	f.Add(seed, 0)
	f.Add(seed, -5)
	f.Add(seed, 1)
	f.Add(seed, 3)
	f.Add(seed[:7], 1<<30)
	f.Add([]byte{}, 16)
	// Strides that yield more segments than the leftover holds: the
	// tail of the split is dropped.
	big := make([]byte, 40000)
	f.Add(big[:4*(2*udpRxBatch+3)], 4)
	f.Add(big, 4)
	f.Add(big, 1)

	f.Fuzz(func(t *testing.T, data []byte, stride int) {
		ln := copy(buf, data)
		u.splitRxSegs(buf, ln, stride, 0)
		frames := drainRx(u)
		if len(frames) > udpRxBatch {
			t.Fatalf("split staged %d frames, the leftover holds %d", len(frames), udpRxBatch)
		}
		for i := range frames {
			d := frames[i].Data
			if len(d) > ln || len(d) > DefaultUDPMTU {
				t.Fatalf("frame %d longer than the receive or the MTU: %d bytes of %d", i, len(d), ln)
			}
			if len(d) > 0 {
				off := int(uintptr(unsafe.Pointer(&d[0])) - uintptr(unsafe.Pointer(&buf[0])))
				if off < udpHdrLen || off+len(d) > ln {
					t.Fatalf("frame %d at [%d, %d) lies outside the receive's payload [%d, %d)", i, off, off+len(d), udpHdrLen, ln)
				}
			}
		}
		ReleaseBurst(frames)
	})
}
