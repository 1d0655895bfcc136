package transport

import (
	"bytes"
	"sync"
	"testing"
)

// mkSegs fills sb's buffer with n wire segments of the given stride:
// each carries a source-address prefix (node 10+i, port 1) and a
// payload of repeated byte(i). Returns the total receive length.
func mkSegs(sb *SegBuf, n, stride int) int {
	for i := 0; i < n; i++ {
		pkt := sb.buf[i*stride : (i+1)*stride]
		pkt[0], pkt[1] = 0, byte(10+i)
		pkt[2], pkt[3] = 0, 1
		for j := udpHdrLen; j < stride; j++ {
			pkt[j] = byte(i)
		}
	}
	return n * stride
}

// newSplitUDP builds a UDP whose rxPool and RX ring are driven solely
// by the test goroutine: no socket, no reader goroutine. splitRxSegs
// runs on the reader goroutine in production — the pool's single
// owner — so a test calling it directly must BE the only pool user; a
// live transport's reader takes its startup buffer from the same pool
// and the race detector (rightly) flags the two unsynchronized Gets.
func newSplitUDP() *UDP {
	u := &UDP{
		local:      Addr{Node: 1},
		mtu:        DefaultUDPMTU,
		peers:      map[Addr]udpDest{},
		done:       make(chan struct{}),
		readerDone: make(chan struct{}),
		rxPool:     NewPool(udpHdrLen+DefaultUDPMTU, udpRingCap+64),
		rxBatch:    make([]Frame, 0, udpRxBatch),
		txScratch:  make([]byte, udpHdrLen+DefaultUDPMTU),
	}
	u.eng = &perPacketEngine{u: u}
	close(u.readerDone)
	return u
}

// drainRing publishes whatever the last split left staged, as the
// reader does after each receive, and empties the ring.
func drainRing(u *UDP) []Frame {
	u.flushRx()
	var out []Frame
	var fr [64]Frame
	for {
		n := u.RecvBurst(fr[:])
		if n == 0 {
			return out
		}
		out = append(out, fr[:n]...)
	}
}

// TestSplitRxSegsAliasesSupersegment pins the zero-copy GRO receive
// contract: a coalesced receive is split into frames that alias the
// refcounted supersegment buffer at the stride (no per-segment copy),
// and the buffer recycles to its pool exactly once, when the last
// segment frame is released.
func TestSplitRxSegsAliasesSupersegment(t *testing.T) {
	u := newSplitUDP()
	sp := newSegPool(1024, 4)
	sb := sp.get()
	const stride = 20
	ln := mkSegs(sb, 3, stride)

	const stamp = 1_700_000_000_123_456_789
	nseg, aliased := u.splitRxSegs(sb, ln, stride, stamp)
	if nseg != 3 || !aliased {
		t.Fatalf("splitRxSegs = (%d, %v), want (3, true)", nseg, aliased)
	}
	if got := u.GroAliasedSegs.Load(); got != 3 {
		t.Fatalf("GroAliasedSegs = %d, want 3", got)
	}
	if got := sp.outstanding.Load(); got != 1 {
		t.Fatalf("outstanding = %d, want 1", got)
	}

	frames := drainRing(u)
	if len(frames) != 3 {
		t.Fatalf("ring delivered %d frames, want 3", len(frames))
	}
	for i, f := range frames {
		want := sb.buf[i*stride+udpHdrLen : (i+1)*stride]
		if &f.Data[0] != &want[0] {
			t.Fatalf("segment %d was copied: frame base %p, supersegment base %p", i, &f.Data[0], &want[0])
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

	// The SegBuf must recycle exactly once, on the LAST release.
	frames[0].Release()
	frames[1].Release()
	if got := sp.recycles.Load(); got != 0 {
		t.Fatalf("recycled after %d of 3 releases", 2)
	}
	frames[2].Release()
	if got := sp.recycles.Load(); got != 1 {
		t.Fatalf("recycles = %d, want 1", got)
	}
	if got := sp.outstanding.Load(); got != 0 {
		t.Fatalf("outstanding = %d after full release, want 0", got)
	}
	if got := sp.get(); got != sb {
		t.Fatal("released SegBuf did not return to its pool")
	}
}

// TestSplitRxSegsMalformed hardens the split against hostile or
// degenerate kernel-reported geometry: zero/negative/oversized
// strides, short trailing segments, sub-header segments and
// out-of-range lengths must neither panic nor mis-slice.
func TestSplitRxSegsMalformed(t *testing.T) {
	u := newSplitUDP()
	sp := newSegPool(1024, 16)

	t.Run("zero-stride", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 1, 24)
		nseg, aliased := u.splitRxSegs(sb, ln, 0, 42)
		if nseg != 1 || aliased {
			t.Fatalf("splitRxSegs = (%d, %v), want one copied whole-buffer segment", nseg, aliased)
		}
		if frames := drainRing(u); len(frames) != 1 || len(frames[0].Data) != 20 || frames[0].RxStamp != 42 {
			t.Fatalf("bad frames: %+v", frames)
		}
	})
	t.Run("negative-stride", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 1, 24)
		if nseg, aliased := u.splitRxSegs(sb, ln, -7, 0); nseg != 1 || aliased {
			t.Fatalf("negative stride mishandled: (%d, %v)", nseg, aliased)
		}
		drainRing(u)
	})
	t.Run("oversized-stride", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 1, 24)
		if nseg, aliased := u.splitRxSegs(sb, ln, 4096, 0); nseg != 1 || aliased {
			t.Fatalf("oversized stride mishandled: (%d, %v)", nseg, aliased)
		}
		drainRing(u)
	})
	t.Run("short-trailing-segment", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 2, 16)
		// Trailing runt: 6 bytes, a valid (sub-stride) wire segment.
		copy(sb.buf[ln:ln+6], []byte{0, 99, 0, 1, 0xEE, 0xEE})
		nseg, aliased := u.splitRxSegs(sb, ln+6, 16, 0)
		if nseg != 3 || !aliased {
			t.Fatalf("splitRxSegs = (%d, %v), want (3, true)", nseg, aliased)
		}
		frames := drainRing(u)
		if len(frames) != 3 || len(frames[2].Data) != 2 || frames[2].Addr.Node != 99 {
			t.Fatalf("trailing segment mis-sliced: %d frames", len(frames))
		}
		ReleaseBurst(frames)
		if sp.outstanding.Load() != 0 {
			t.Fatal("SegBuf not recycled after release")
		}
	})
	t.Run("sub-header-trailing-segment", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 2, 16)
		sb.buf[ln], sb.buf[ln+1] = 0xAA, 0xBB // 2-byte runt: no full prefix
		nseg, aliased := u.splitRxSegs(sb, ln+2, 16, 0)
		if nseg != 3 || !aliased {
			t.Fatalf("splitRxSegs = (%d, %v), want (3, true)", nseg, aliased)
		}
		// Only the two whole segments were handed out; the refcount
		// must have been charged accordingly, not with the runt.
		frames := drainRing(u)
		if len(frames) != 2 {
			t.Fatalf("delivered %d frames, want 2 (runt dropped)", len(frames))
		}
		ReleaseBurst(frames)
		if sp.outstanding.Load() != 0 {
			t.Fatal("SegBuf leaked: runt segment charged a reference")
		}
	})
	t.Run("length-beyond-buffer", func(t *testing.T) {
		sb := sp.get()
		if nseg, aliased := u.splitRxSegs(sb, len(sb.buf)+1, 16, 0); nseg != 0 || aliased {
			t.Fatalf("out-of-range length mishandled: (%d, %v)", nseg, aliased)
		}
		if nseg, aliased := u.splitRxSegs(sb, 0, 16, 0); nseg != 0 || aliased {
			t.Fatalf("zero length mishandled: (%d, %v)", nseg, aliased)
		}
		if nseg, aliased := u.splitRxSegs(nil, 16, 16, 0); nseg != 0 || aliased {
			t.Fatalf("nil SegBuf mishandled: (%d, %v)", nseg, aliased)
		}
		if frames := drainRing(u); len(frames) != 0 {
			t.Fatalf("degenerate receives enqueued %d frames", len(frames))
		}
	})
}

// TestSplitRxSegsAliasBudget checks the outstanding-alias bound: once
// segPool.limit supersegments are aliased out, further coalesced
// receives degrade to the pooled-copy path (counted by GroCopiedSegs)
// instead of pinning unbounded memory, and aliasing resumes when a
// buffer is released.
func TestSplitRxSegsAliasBudget(t *testing.T) {
	u := newSplitUDP()
	sp := newSegPool(1024, 1)

	sb1 := sp.get()
	if _, aliased := u.splitRxSegs(sb1, mkSegs(sb1, 2, 16), 16, 0); !aliased {
		t.Fatal("first supersegment not aliased")
	}
	sb2 := sp.get()
	if _, aliased := u.splitRxSegs(sb2, mkSegs(sb2, 2, 16), 16, 0); aliased {
		t.Fatal("second supersegment aliased beyond the budget")
	}
	if got := u.GroCopiedSegs.Load(); got != 2 {
		t.Fatalf("GroCopiedSegs = %d, want 2", got)
	}
	ReleaseBurst(drainRing(u)) // releases sb1's two references
	if sp.outstanding.Load() != 0 {
		t.Fatal("budget not returned on release")
	}
	if _, aliased := u.splitRxSegs(sb2, mkSegs(sb2, 2, 16), 16, 0); !aliased {
		t.Fatal("aliasing did not resume after the budget freed up")
	}
	ReleaseBurst(drainRing(u))
}

// TestSplitRxSegsBatchBoundary splits receives that yield exactly as
// many segments as the reader's batch holds, one more, and several
// batches' worth: the batch publishes itself when full, so every
// segment arrives once, in order, and the SegBuf recycles after the
// last release whichever publish a segment travelled in.
func TestSplitRxSegsBatchBoundary(t *testing.T) {
	for _, n := range []int{udpRxBatch - 1, udpRxBatch, udpRxBatch + 1, 3*udpRxBatch + 7} {
		u := newSplitUDP()
		sp := newSegPool(1<<16, 4)
		sb := sp.get()
		const stride = 6
		for i := 0; i < n; i++ {
			pkt := sb.buf[i*stride:]
			pkt[0], pkt[1], pkt[2], pkt[3] = byte(i>>8), byte(i), 0, 1
		}
		nseg, aliased := u.splitRxSegs(sb, n*stride, stride, 0)
		if nseg != n || !aliased {
			t.Fatalf("n=%d: splitRxSegs = (%d, %v), want (%d, true)", n, nseg, aliased, n)
		}
		if staged := len(u.rxBatch); staged != (n-1)%udpRxBatch+1 {
			t.Fatalf("n=%d: %d frames left staged, want %d", n, staged, (n-1)%udpRxBatch+1)
		}
		frames := drainRing(u)
		if len(frames) != n {
			t.Fatalf("n=%d: ring delivered %d frames", n, len(frames))
		}
		for i, f := range frames {
			if int(f.Addr.Node) != i || len(f.Data) != stride-udpHdrLen {
				t.Fatalf("n=%d: frame %d is from node %d with %d bytes", n, i, f.Addr.Node, len(f.Data))
			}
		}
		ReleaseBurst(frames)
		if sp.outstanding.Load() != 0 || sp.recycles.Load() != 1 {
			t.Fatalf("n=%d: outstanding %d, recycles %d after full release", n, sp.outstanding.Load(), sp.recycles.Load())
		}
	}
}

// TestUDPRingOverflowReleasesSegs publishes more SegBuf-aliased
// segments than the ring has room for: the overflow is counted in
// Drops and every dropped segment gives its reference back, so the
// SegBuf returns to its pool once the segments that did fit are
// drained and released.
func TestUDPRingOverflowReleasesSegs(t *testing.T) {
	u := newSplitUDP()
	sp := newSegPool(1<<16, 4)
	const room, segs, stride = 5, 16, 20
	fill := make([]Frame, udpRingCap-room)
	for i := range fill {
		fill[i] = SharedFrame(append(u.rxPool.Get(), 1), Addr{}, u.rxPool)
	}
	u.publish(fill)

	sb := sp.get()
	if nseg, aliased := u.splitRxSegs(sb, mkSegs(sb, segs, stride), stride, 0); nseg != segs || !aliased {
		t.Fatalf("splitRxSegs = (%d, %v), want (%d, true)", nseg, aliased, segs)
	}
	u.flushRx()
	if got := u.Drops.Load(); got != segs-room {
		t.Fatalf("Drops = %d, want %d", got, segs-room)
	}
	if got := sb.refs.Load(); got != room {
		t.Fatalf("SegBuf holds %d references after the overflow, want %d (the published segments)", got, room)
	}
	if pending := u.tail - u.head; pending != udpRingCap {
		t.Fatalf("ring holds %d, want exactly capacity %d", pending, udpRingCap)
	}
	frames := drainRing(u)
	for i, f := range frames[len(frames)-room:] {
		if f.seg != sb || f.Addr != (Addr{Node: uint16(10 + i), Port: 1}) {
			t.Fatalf("published segment %d is %v from %v", i, f.seg, f.Addr)
		}
	}
	ReleaseBurst(frames)
	if sp.outstanding.Load() != 0 || sp.recycles.Load() != 1 {
		t.Fatalf("outstanding %d, recycles %d after drain and release", sp.outstanding.Load(), sp.recycles.Load())
	}
	if got := sp.get(); got != sb {
		t.Fatal("SegBuf did not return to its pool")
	}
}

// TestUDPPublishWakesOnce pins the hand-off's wake rule: one publish of
// many frames into an empty ring invokes the wake callback exactly
// once, a publish into a ring that already holds frames not at all.
func TestUDPPublishWakesOnce(t *testing.T) {
	u := newSplitUDP()
	wakes := 0
	u.SetWake(func() { wakes++ })
	burst := func(n int) []Frame {
		fr := make([]Frame, n)
		for i := range fr {
			fr[i] = SharedFrame(append(u.rxPool.Get(), byte(i)), Addr{}, u.rxPool)
		}
		return fr
	}
	u.publish(burst(16))
	if wakes != 1 {
		t.Fatalf("publish of 16 frames into an empty ring woke %d times, want 1", wakes)
	}
	u.publish(burst(16))
	u.publish(burst(1))
	if wakes != 1 {
		t.Fatalf("publishes into a non-empty ring woke: %d wakes, want 1", wakes)
	}
	if got := len(drainRing(u)); got != 33 {
		t.Fatalf("ring delivered %d frames, want 33", got)
	}
	u.publish(nil)
	if wakes != 1 {
		t.Fatalf("an empty publish woke: %d wakes", wakes)
	}
	u.publish(burst(2))
	if wakes != 2 {
		t.Fatalf("publish into the drained ring: %d wakes, want 2", wakes)
	}
}

// TestSegBufConcurrentRelease interleaves segment-frame releases from
// two goroutines (the pool-owner/dispatch split of a real datapath)
// under the race detector and asserts the supersegment recycles
// exactly once per round.
func TestSegBufConcurrentRelease(t *testing.T) {
	sp := newSegPool(2048, 8)
	const rounds = 2000
	const segs = 32
	for round := 0; round < rounds; round++ {
		sb := sp.get()
		sb.refs.Store(segs)
		sp.outstanding.Add(1)
		var bursts [2][]Frame
		for i := 0; i < segs; i++ {
			f := Frame{Data: sb.buf[i*64 : i*64+64], Addr: Addr{Node: uint16(i)}, seg: sb}
			bursts[i%2] = append(bursts[i%2], f)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(fr []Frame) {
				defer wg.Done()
				ReleaseBurst(fr)
			}(bursts[g])
		}
		wg.Wait()
		if got := sp.recycles.Load(); got != uint64(round+1) {
			t.Fatalf("round %d: recycles = %d, want %d (exactly once per round)", round, got, round+1)
		}
		if got := sp.outstanding.Load(); got != 0 {
			t.Fatalf("round %d: outstanding = %d, want 0", round, got)
		}
	}
}

// FuzzSplitRxSegs drives the supersegment split with arbitrary receive
// bytes and strides — the gso-reader analogue of FuzzRxBurst. The
// invariants: no panic, no mis-sliced frame, and after draining and
// releasing every delivered frame no SegBuf reference remains
// outstanding (even when the split outgrows the reader's batch and
// publishes in pieces, or ring overflow drops segments mid-split).
func FuzzSplitRxSegs(f *testing.F) {
	u := newSplitUDP()
	sp := newSegPool(1<<16, 8)
	var sb *SegBuf

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
	// Strides that yield more segments than the reader's batch holds
	// (the batch publishes itself mid-split) and than the ring holds
	// (the tail of the split is dropped and its references released).
	big := make([]byte, 40000)
	f.Add(big[:4*(2*udpRxBatch+3)], 4)
	f.Add(big, 4)
	f.Add(big, 1)

	f.Fuzz(func(t *testing.T, data []byte, stride int) {
		if sb == nil {
			sb = sp.get()
		}
		ln := copy(sb.buf, data)
		_, aliased := u.splitRxSegs(sb, ln, stride, 0)
		if aliased {
			sb = nil // engine posts a fresh buffer; this one is out as aliases
		}
		frames := drainRing(u)
		for i := range frames {
			if len(frames[i].Data) > ln {
				t.Fatalf("frame %d longer than the receive: %d > %d", i, len(frames[i].Data), ln)
			}
		}
		ReleaseBurst(frames)
		if got := sp.outstanding.Load(); got != 0 {
			t.Fatalf("outstanding SegBufs after full drain: %d", got)
		}
	})
}
