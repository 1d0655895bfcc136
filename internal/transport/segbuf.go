package transport

import (
	"sync"
	"sync/atomic"
)

// This file is the refcounted half of the GRO receive path (paper
// Appendix C, completing zero-copy on RX): a SegBuf is one engine-owned
// receive buffer whose segments are handed out as RX frames *aliasing*
// the buffer at the cmsg stride, instead of being copied
// into per-packet pooled buffers. The buffer recycles when the
// last segment frame is released — the descriptor-refcount idiom NICs
// use for header/data split receives.
//
// The types are portable (no build tags) so the split logic and its
// lifetime rules are exercised by tests and fuzzing on every platform,
// even though only the Linux batched engine produces SegBufs today.

// SegBuf is a refcounted supersegment receive buffer. A receive fills
// buf with one (possibly GRO-coalesced) datagram, then
// splitRxSegs charges refs with the number of segment frames handed
// out; each Frame.Release drops one reference and the last one returns
// the SegBuf to its pool.
type SegBuf struct {
	buf  []byte
	refs atomic.Int32
	sp   *segPool
}

// release drops one segment reference, recycling the SegBuf when it
// was the last. Safe from any goroutine.
func (sb *SegBuf) release() {
	n := sb.refs.Add(-1)
	segDebugCheckRelease(sb, n)
	if n == 0 {
		sb.sp.put(sb)
	}
}

// recharge arms the refcount for a fresh split. The previous hand-out
// must be fully released (refs == 0) — the erpcdebug build asserts it.
func (sb *SegBuf) recharge(n int32) {
	segDebugCheckRecharge(sb)
	sb.refs.Store(n)
}

// segPool recycles SegBufs between the receiving goroutine (get) and
// whichever goroutine releases the last segment frame (put), usually
// the same one. There is no owner fast path: a SegBuf recycles once
// per supersegment — dozens of datagrams — so one mutex acquisition per
// recycle is already amortized far below one per packet.
type segPool struct {
	bufCap int
	limit  int32 // max SegBufs outstanding as RX-frame aliases

	// outstanding counts SegBufs currently aliased by RX frames; when
	// it reaches limit the split falls back to copying, bounding the
	// memory a slow consumer can pin (limit × bufCap bytes).
	outstanding atomic.Int32

	news     atomic.Uint64 // SegBufs allocated because free ran dry
	recycles atomic.Uint64 // SegBufs returned by a last-reference release

	mu   sync.Mutex
	free []*SegBuf

	// dbg is the erpcdebug sanitizer state: zero-sized and inert in
	// release builds (see debug_off.go / debug_on.go).
	dbg segDebug
}

func newSegPool(bufCap int, limit int32) *segPool {
	// The free list holds every SegBuf the engine can have in flight:
	// up to limit aliased ones plus the posted receive window. Beyond
	// that, put drops to the GC rather than growing.
	return &segPool{
		bufCap: bufCap,
		limit:  limit,
		free:   make([]*SegBuf, 0, int(limit)+16),
	}
}

// get returns a SegBuf to post to the kernel. Receiving goroutine
// only.
func (sp *segPool) get() *SegBuf {
	sp.mu.Lock()
	if n := len(sp.free); n > 0 {
		sb := sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
		sp.mu.Unlock()
		sp.dbg.onGet(sb)
		return sb
	}
	sp.mu.Unlock()
	sp.news.Add(1)
	return &SegBuf{buf: make([]byte, sp.bufCap), sp: sp}
}

// canAlias reports whether another SegBuf may be handed out as RX
// aliases without exceeding the outstanding-memory bound.
func (sp *segPool) canAlias() bool { return sp.outstanding.Load() < sp.limit }

// put recycles a SegBuf whose last segment reference was released.
func (sp *segPool) put(sb *SegBuf) {
	sp.dbg.onPut(sb)
	sp.outstanding.Add(-1)
	sp.recycles.Add(1)
	sp.mu.Lock()
	if len(sp.free) < cap(sp.free) {
		sp.free = append(sp.free, sb)
	}
	sp.mu.Unlock()
}

// splitRxSegs splits one received wire buffer — a GRO-coalesced
// supersegment, or a plain datagram — into RX frames at the given
// segment stride, each carrying the receive's kernel stamp, stages them
// on the leftover (u.rx) and reports how many segments it saw and
// whether the SegBuf was handed out aliased (the caller must then stop
// touching it and post a fresh one to the kernel). Segments beyond the
// leftover's room are dropped: only a hostile stride yields more than a
// receive window holds.
//
// A coalesced receive (two or more segments) is handed out zero-copy:
// the SegBuf's refcount is charged with the number of segments staged
// before any frame is, so a Release can never drop the count to zero
// early. Uncoalesced datagrams keep the pooled-copy path — there is no
// per-datagram stack traversal to amortize, and aliasing would pin a
// whole supersegment buffer per small packet — as does alias-budget
// overflow (see segPool.limit).
//
// The split is deliberately paranoid about kernel-reported geometry,
// since stride and length arrive from outside the process: a
// non-positive or oversized stride degrades to one whole-buffer
// segment, a short trailing segment is clamped to the receive length,
// segments shorter than the wire prefix are dropped, and a length
// beyond the buffer drops the receive outright.
//
//erpc:owner
func (u *UDP) splitRxSegs(sb *SegBuf, ln, stride int, stamp int64) (nseg int, aliased bool) {
	if sb == nil || ln <= 0 || ln > len(sb.buf) {
		return 0, false
	}
	if stride <= 0 || stride > ln {
		stride = ln
	}
	total := (ln + stride - 1) / stride
	room := u.rxRoom()
	if total >= 2 && sb.sp != nil && sb.sp.canAlias() {
		valid := 0
		for off := 0; off < ln && valid < room; off += stride {
			if min(off+stride, ln)-off >= udpHdrLen {
				valid++
			}
		}
		if valid == 0 {
			return total, false
		}
		sb.recharge(int32(valid))
		sb.sp.outstanding.Add(1)
		u.GroAliasedSegs.Add(uint64(valid))
		for off, staged := 0, 0; staged < valid; off += stride {
			pkt := sb.buf[off:min(off+stride, ln)]
			if len(pkt) < udpHdrLen {
				continue
			}
			u.stage(Frame{Data: pkt[udpHdrLen:], Addr: parseHdr(pkt), RxStamp: stamp, seg: sb})
			staged++
		}
		return total, true
	}
	for off := 0; off < ln && u.rxRoom() > 0; off += stride {
		pkt := sb.buf[off:min(off+stride, ln)]
		if len(pkt) < udpHdrLen {
			continue
		}
		pb := u.rxPool.Get()
		if len(pkt) > cap(pb) {
			u.rxPool.Put(pb)
			continue // oversized foreign datagram
		}
		if total >= 2 {
			u.GroCopiedSegs.Add(1)
		}
		pb = pb[:len(pkt)]
		copy(pb, pkt)
		u.stage(u.rxFrame(pb, stamp))
	}
	return total, false
}
