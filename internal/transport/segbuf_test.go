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

// newSplitUDP builds a UDP whose rxPool and leftover are driven solely
// by the test goroutine, with no socket: splitRxSegs runs on the
// receiving goroutine — the pool's single owner — so a test calling it
// directly is that goroutine.
func newSplitUDP() *UDP {
	u := &UDP{
		local:     Addr{Node: 1},
		mtu:       DefaultUDPMTU,
		peers:     map[Addr]udpDest{},
		rxPool:    NewPool(udpHdrLen+DefaultUDPMTU, udpRxBatch+SocketBurst),
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

	frames := drainRx(u)
	if len(frames) != 3 {
		t.Fatalf("split delivered %d frames, want 3", len(frames))
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
		if frames := drainRx(u); len(frames) != 1 || len(frames[0].Data) != 20 || frames[0].RxStamp != 42 {
			t.Fatalf("bad frames: %+v", frames)
		}
	})
	t.Run("negative-stride", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 1, 24)
		if nseg, aliased := u.splitRxSegs(sb, ln, -7, 0); nseg != 1 || aliased {
			t.Fatalf("negative stride mishandled: (%d, %v)", nseg, aliased)
		}
		drainRx(u)
	})
	t.Run("oversized-stride", func(t *testing.T) {
		sb := sp.get()
		ln := mkSegs(sb, 1, 24)
		if nseg, aliased := u.splitRxSegs(sb, ln, 4096, 0); nseg != 1 || aliased {
			t.Fatalf("oversized stride mishandled: (%d, %v)", nseg, aliased)
		}
		drainRx(u)
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
		frames := drainRx(u)
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
		frames := drainRx(u)
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
		if frames := drainRx(u); len(frames) != 0 {
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
	ReleaseBurst(drainRx(u)) // releases sb1's two references
	if sp.outstanding.Load() != 0 {
		t.Fatal("budget not returned on release")
	}
	if _, aliased := u.splitRxSegs(sb2, mkSegs(sb2, 2, 16), 16, 0); !aliased {
		t.Fatal("aliasing did not resume after the budget freed up")
	}
	ReleaseBurst(drainRx(u))
}

// TestSplitRxSegsBatchBoundary splits receives that yield exactly as
// many segments as the leftover holds, one fewer, one more and several
// times more: the leftover takes what fits, in order, the rest is
// dropped without charging the SegBuf a reference, and the SegBuf
// recycles after the last release of what was delivered.
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
		want := min(n, udpRxBatch)
		if got := sb.refs.Load(); got != int32(want) {
			t.Fatalf("n=%d: SegBuf charged %d references, want %d (the staged segments)", n, got, want)
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
		if sp.outstanding.Load() != 0 || sp.recycles.Load() != 1 {
			t.Fatalf("n=%d: outstanding %d, recycles %d after full release", n, sp.outstanding.Load(), sp.recycles.Load())
		}
	}
}

// TestUDPCloseReleasesLeftover leaves segments of a supersegment over
// from a burst when the transport closes: RecvBurst after Close returns
// nothing and releases them, so the SegBuf returns to its pool once the
// segments the burst did take are released too.
func TestUDPCloseReleasesLeftover(t *testing.T) {
	u, err := NewUDP(Addr{1, 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sp := newSegPool(1<<16, 4)
	const segs, stride, taken = 16, 20, 5
	sb := sp.get()
	if nseg, aliased := u.splitRxSegs(sb, mkSegs(sb, segs, stride), stride, 0); nseg != segs || !aliased {
		t.Fatalf("splitRxSegs = (%d, %v), want (%d, true)", nseg, aliased, segs)
	}
	var burst [taken]Frame
	if n := u.RecvBurst(burst[:]); n != taken {
		t.Fatalf("RecvBurst took %d of the leftover, want %d", n, taken)
	}
	for i, f := range burst {
		if f.seg != sb || f.Addr != (Addr{Node: uint16(10 + i), Port: 1}) {
			t.Fatalf("frame %d is %v from %v", i, f.seg, f.Addr)
		}
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	var more [64]Frame
	if n := u.RecvBurst(more[:]); n != 0 {
		t.Fatalf("RecvBurst after Close returned %d frames", n)
	}
	if got := sb.refs.Load(); got != taken {
		t.Fatalf("SegBuf holds %d references after Close, want %d (the burst's)", got, taken)
	}
	ReleaseBurst(burst[:])
	if sp.outstanding.Load() != 0 || sp.recycles.Load() != 1 {
		t.Fatalf("outstanding %d, recycles %d after release", sp.outstanding.Load(), sp.recycles.Load())
	}
	if got := sp.get(); got != sb {
		t.Fatal("SegBuf did not return to its pool")
	}
}

// TestSegBufConcurrentRelease interleaves segment-frame releases from
// two goroutines (a frame may be released off the receiving goroutine)
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
// bytes and strides — the gso receive path's analogue of FuzzRxBurst.
// The invariants: no panic, no mis-sliced frame, and after draining and
// releasing every delivered frame no SegBuf reference remains
// outstanding (even when the split outgrows the leftover and drops
// segments mid-split).
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
	// Strides that yield more segments than the leftover holds: the
	// tail of the split is dropped and never charged a reference.
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
		frames := drainRx(u)
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
