// Package msgbuf implements eRPC's DMA-capable message buffers.
//
// A Buf holds one, possibly multi-packet, message using the layout of
// the paper's Figure 2:
//
//	[ H1 | Data1 Data2 ... DataN | H2 ... HN ]
//
// Two requirements drive the layout (paper §4.2.1):
//
//  1. The data region is contiguous, so applications can use it as an
//     opaque buffer.
//  2. The first packet's header and data are contiguous, so a NIC can
//     fetch a small message with a single DMA read.
//
// Headers for packets 2..N live at the end of the buffer; placing
// header 2 after the first data packet would break requirement 1.
package msgbuf

import (
	"fmt"

	"repro/internal/wire"
)

// Buf is a message buffer. It is created by an Allocator and must not
// be copied. Its owner is the application or, while an RPC uses it, the
// endpoint; no transmission queue points into it: every frame of a
// message is copied out with Frame.
type Buf struct {
	backing    []byte
	maxData    int // capacity of the data region
	dataPerPkt int // data bytes per packet
	msgSize    int // current message size (<= maxData)

	alloc     *Allocator
	poolClass int // size-class index in the allocator, -1 if unpooled
}

// Alloc-time limits.
const maxSaneSize = wire.MaxMsgSize

// NewBuf creates an unpooled buffer with capacity for maxData message
// bytes split into dataPerPkt-byte packets. Most callers should use an
// Allocator instead.
func NewBuf(maxData, dataPerPkt int) *Buf {
	if maxData < 0 || maxData > maxSaneSize {
		panic(fmt.Sprintf("msgbuf: bad maxData %d", maxData))
	}
	if dataPerPkt <= 0 {
		panic("msgbuf: dataPerPkt must be positive")
	}
	maxPkts := wire.NumPkts(uint32(maxData), dataPerPkt)
	n := wire.HeaderSize + maxData + (maxPkts-1)*wire.HeaderSize
	return &Buf{
		backing:    make([]byte, n),
		maxData:    maxData,
		dataPerPkt: dataPerPkt,
		msgSize:    maxData,
		poolClass:  -1,
	}
}

// Resize sets the current message size. It never reallocates; n must
// not exceed MaxData.
func (b *Buf) Resize(n int) {
	if n < 0 || n > b.maxData {
		panic(fmt.Sprintf("msgbuf: Resize(%d) out of range [0,%d]", n, b.maxData))
	}
	b.msgSize = n
}

// MsgSize reports the current message size in bytes.
func (b *Buf) MsgSize() int { return b.msgSize }

// MaxData reports the data capacity in bytes.
func (b *Buf) MaxData() int { return b.maxData }

// DataPerPkt reports the per-packet data capacity.
func (b *Buf) DataPerPkt() int { return b.dataPerPkt }

// NumPkts reports the number of packets for the current message size.
func (b *Buf) NumPkts() int { return wire.NumPkts(uint32(b.msgSize), b.dataPerPkt) }

// Data returns the contiguous data region for the current message size.
func (b *Buf) Data() []byte {
	return b.backing[wire.HeaderSize : wire.HeaderSize+b.msgSize]
}

// PktData returns the data slice carried by packet i of the current
// message.
func (b *Buf) PktData(i int) []byte {
	l := wire.PktDataLen(uint32(b.msgSize), b.dataPerPkt, i)
	off := wire.HeaderSize + i*b.dataPerPkt
	return b.backing[off : off+l]
}

// PktHeader returns the 16-byte header slice for packet i. Header 0
// precedes the data region; headers 1..N-1 trail it (Figure 2).
func (b *Buf) PktHeader(i int) []byte {
	if i == 0 {
		return b.backing[0:wire.HeaderSize]
	}
	off := wire.HeaderSize + b.maxData + (i-1)*wire.HeaderSize
	return b.backing[off : off+wire.HeaderSize]
}

// Frame copies the wire frame of packet i, header then data, into dst
// and returns it: dst[:n], or a new slice when dst has less than n
// bytes of capacity. Packet 0's header and data are contiguous in the
// buffer (Figure 2), the others are gathered, but all take this one
// path: a sender builds each frame where it sends from.
func (b *Buf) Frame(i int, dst []byte) []byte {
	data := b.PktData(i)
	n := wire.HeaderSize + len(data)
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	copy(dst, b.PktHeader(i))
	copy(dst[wire.HeaderSize:], data)
	return dst
}

// Allocator hands out pooled message buffers. Pools are per
// power-of-two size class; freeing returns a buffer to its class.
// Allocator is not goroutine-safe: each Rpc endpoint owns one, matching
// eRPC's per-thread hugepage allocator.
type Allocator struct {
	dataPerPkt int
	pools      [25][]*Buf // class i holds buffers with maxData 2^i

	// Stats for the CPU cost model and tests.
	Allocs    uint64 // total Alloc calls
	PoolHits  uint64 // Allocs served from a pool
	FreeCount uint64
}

// NewAllocator returns an allocator producing buffers with the given
// per-packet data capacity.
func NewAllocator(dataPerPkt int) *Allocator {
	if dataPerPkt <= 0 {
		panic("msgbuf: dataPerPkt must be positive")
	}
	return &Allocator{dataPerPkt: dataPerPkt}
}

func classFor(n int) int {
	c := 0
	for 1<<c < n {
		c++
	}
	return c
}

// Alloc returns a buffer able to hold at least size data bytes, with
// MsgSize preset to size.
func (a *Allocator) Alloc(size int) *Buf {
	if size < 0 || size > maxSaneSize {
		panic(fmt.Sprintf("msgbuf: Alloc(%d) out of range", size))
	}
	a.Allocs++
	c := classFor(size)
	if pool := a.pools[c]; len(pool) > 0 {
		b := pool[len(pool)-1]
		a.pools[c] = pool[:len(pool)-1]
		b.Resize(size)
		a.PoolHits++
		return b
	}
	b := NewBuf(1<<c, a.dataPerPkt)
	b.alloc = a
	b.poolClass = c
	b.Resize(size)
	return b
}

// Free returns a pooled buffer to its allocator.
func (a *Allocator) Free(b *Buf) {
	if b == nil {
		return
	}
	if b.alloc != a || b.poolClass < 0 {
		panic("msgbuf: Free of buffer not owned by this allocator")
	}
	a.FreeCount++
	a.pools[b.poolClass] = append(a.pools[b.poolClass], b)
}
