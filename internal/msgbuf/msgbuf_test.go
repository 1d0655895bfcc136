package msgbuf

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func TestSinglePacketLayout(t *testing.T) {
	b := NewBuf(64, 1024)
	b.Resize(32)
	if b.NumPkts() != 1 {
		t.Fatalf("NumPkts = %d, want 1", b.NumPkts())
	}
	for i := range b.Data() {
		b.Data()[i] = byte(i)
	}
	// First packet header + data must be contiguous (one DMA).
	if &b.PktHeader(0)[wire.HeaderSize-1] != &b.backing[wire.HeaderSize-1] || &b.Data()[0] != &b.backing[wire.HeaderSize] {
		t.Fatal("header 0 and the data region are not contiguous")
	}
	f := b.Frame(0, nil)
	if len(f) != wire.HeaderSize+32 {
		t.Fatalf("frame len = %d", len(f))
	}
	if !bytes.Equal(f[wire.HeaderSize:], b.Data()) {
		t.Fatal("frame data mismatch")
	}
}

func TestMultiPacketLayout(t *testing.T) {
	b := NewBuf(2500, 1000)
	b.Resize(2500)
	if b.NumPkts() != 3 {
		t.Fatalf("NumPkts = %d, want 3", b.NumPkts())
	}
	data := b.Data()
	for i := range data {
		data[i] = byte(i % 251)
	}
	// Data region must be contiguous: PktData slices tile Data().
	off := 0
	for i := 0; i < 3; i++ {
		pd := b.PktData(i)
		if !bytes.Equal(pd, data[off:off+len(pd)]) {
			t.Fatalf("packet %d data not contiguous with region", i)
		}
		if &pd[0] != &data[off] {
			t.Fatalf("packet %d data should alias region", i)
		}
		off += len(pd)
	}
	if off != 2500 {
		t.Fatalf("packets tile %d bytes, want 2500", off)
	}
	// Trailing headers must not overlap the data region.
	h1 := b.PktHeader(1)
	if &h1[0] == &data[1000] {
		t.Fatal("header 1 overlaps data region")
	}
}

func TestHeaderSlicesDistinct(t *testing.T) {
	b := NewBuf(3000, 1000)
	b.Resize(3000)
	for i := 0; i < b.NumPkts(); i++ {
		h := b.PktHeader(i)
		if len(h) != wire.HeaderSize {
			t.Fatalf("header %d len = %d", i, len(h))
		}
		for j := range h {
			h[j] = byte(i)
		}
	}
	for i := 0; i < b.NumPkts(); i++ {
		h := b.PktHeader(i)
		for _, v := range h {
			if v != byte(i) {
				t.Fatalf("header %d was clobbered", i)
			}
		}
	}
}

func TestFrameGathersNonFirstPackets(t *testing.T) {
	b := NewBuf(2000, 1000)
	b.Resize(1500)
	hdr := wire.Header{PktType: wire.PktReq, MsgSize: 1500, PktNum: 1, ReqNum: 9}
	if err := hdr.Encode(b.PktHeader(1)); err != nil {
		t.Fatal(err)
	}
	copy(b.PktData(1), bytes.Repeat([]byte{0xAB}, 500))
	f := b.Frame(1, make([]byte, 0, 2048))
	if len(f) != wire.HeaderSize+500 {
		t.Fatalf("frame len = %d", len(f))
	}
	var got wire.Header
	if err := got.Decode(f); err != nil {
		t.Fatal(err)
	}
	if got.PktNum != 1 || got.ReqNum != 9 {
		t.Fatalf("frame header mismatch: %+v", got)
	}
	for _, v := range f[wire.HeaderSize:] {
		if v != 0xAB {
			t.Fatal("frame payload mismatch")
		}
	}
}

// TestFrameCopiesIntoDst: every packet, the first too, is a copy of its
// header and data built in dst, and building it allocates nothing when
// dst has room.
func TestFrameCopiesIntoDst(t *testing.T) {
	b := NewBuf(3000, 1000)
	b.Resize(2500)
	for i := range b.Data() {
		b.Data()[i] = byte(i)
	}
	dst := make([]byte, wire.HeaderSize+1000)
	for i := 0; i < b.NumPkts(); i++ {
		copy(b.PktHeader(i), bytes.Repeat([]byte{byte(0xF0 + i)}, wire.HeaderSize))
		f := b.Frame(i, dst)
		if &f[0] != &dst[0] {
			t.Fatalf("packet %d: frame not built in dst", i)
		}
		if !bytes.Equal(f[:wire.HeaderSize], b.PktHeader(i)) || !bytes.Equal(f[wire.HeaderSize:], b.PktData(i)) {
			t.Fatalf("packet %d: frame is not header then data", i)
		}
		if n := testing.AllocsPerRun(100, func() { b.Frame(i, dst) }); n != 0 {
			t.Fatalf("packet %d: Frame into a dst with room allocates %v times", i, n)
		}
	}
}

func TestResizeBounds(t *testing.T) {
	b := NewBuf(100, 50)
	b.Resize(0)
	if b.NumPkts() != 1 {
		t.Fatal("zero-size message should still be 1 packet")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Resize beyond capacity should panic")
		}
	}()
	b.Resize(101)
}

func TestAllocatorPooling(t *testing.T) {
	a := NewAllocator(1024)
	b1 := a.Alloc(100)
	if b1.MsgSize() != 100 {
		t.Fatalf("msgsize = %d", b1.MsgSize())
	}
	a.Free(b1)
	b2 := a.Alloc(120) // same class (128)
	if b2 != b1 {
		t.Fatal("allocator should reuse the pooled buffer")
	}
	if a.PoolHits != 1 || a.Allocs != 2 || a.FreeCount != 1 {
		t.Fatalf("stats: %+v", *a)
	}
}

func TestAllocatorDistinctClasses(t *testing.T) {
	a := NewAllocator(1024)
	small := a.Alloc(10)
	big := a.Alloc(1 << 20)
	a.Free(small)
	got := a.Alloc(1 << 20)
	if got == small {
		t.Fatal("class mixing: got small buffer for large alloc")
	}
	a.Free(big)
	a.Free(got)
}

func TestFreeForeignBufferPanics(t *testing.T) {
	a := NewAllocator(1024)
	b := NewBuf(10, 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("Free of unpooled buffer must panic")
		}
	}()
	a.Free(b)
}

// Property: for any message size and MTU, packet data slices exactly
// tile the contiguous data region and headers never overlap data.
func TestLayoutProperty(t *testing.T) {
	f := func(sizeRaw uint16, mtuRaw uint8) bool {
		size := int(sizeRaw)
		mtu := int(mtuRaw)%512 + 16
		b := NewBuf(size, mtu)
		b.Resize(size)
		n := b.NumPkts()
		total := 0
		for i := 0; i < n; i++ {
			total += len(b.PktData(i))
		}
		if total != size {
			return false
		}
		// Header 0 sits immediately before data; trailing headers after.
		if size > 0 {
			d := b.Data()
			h0 := b.PktHeader(0)
			if &h0[wire.HeaderSize-1] == &d[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocFreeSmall(b *testing.B) {
	a := NewAllocator(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := a.Alloc(32)
		a.Free(buf)
	}
}

func BenchmarkFrameFirstPacket(b *testing.B) {
	buf := NewBuf(32, 1024)
	buf.Resize(32)
	dst := make([]byte, 0, wire.HeaderSize+1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = buf.Frame(0, dst)
	}
}
