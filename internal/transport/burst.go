package transport

import (
	"sync"
	"sync/atomic"
)

// This file defines the burst datapath: the Frame unit moved by
// SendBurst/RecvBurst and the recycling buffer Pool, which backs the RX
// frames of an in-memory transport that hands its buffers to the
// receiver rather than lending them (the simulated fabric and UDP lend
// theirs until the next receive). The design mirrors the paper's NIC
// datapath (§4.2-4.3): RX and TX move a burst of packets per event-loop
// iteration (up to 16 in the paper and in simulated time, up to 64 over
// a real socket), RX buffers are re-posted after processing, and a TX
// burst rings the doorbell once.

// DefaultBurst is the paper's burst size (§4.2.1: "RX and TX bursts of
// up to 16 packets"), sized to amortize a doorbell that is one MMIO
// write.
const DefaultBurst = 16

// SocketBurst is the burst of an endpoint that a goroutine drives over
// a real transport. There the doorbell is a syscall of microseconds,
// not an MMIO write, so a burst takes what one sendmmsg of the batched
// engine takes: SocketBurst frames in one call.
const SocketBurst = 64

// Frame is one packet of a burst: a payload plus the peer address
// (destination on TX, source on RX).
//
// Ownership rules:
//
//   - TX (SendBurst): frames are owned by the caller, the transport's
//     owner. The transport must finish with Data before SendBurst
//     returns (send or copy); the caller may reuse the bytes
//     immediately afterwards.
//   - RX (RecvBurst): frames are owned by the receiver until it calls
//     Release, on the goroutine that called RecvBurst, and a caller
//     releases every frame of a burst before its next RecvBurst or Wait
//     on that transport, which may then receive into the bytes again
//     (a UDP frame aliases the receive window it arrived in, a
//     simulated one a buffer the fabric re-posts at that call). Data
//     must not be referenced after Release. A pooled frame (PooledFrame)
//     re-posts its buffer to the pool on Release; dropping one without
//     Release leaks the buffer to the garbage collector.
type Frame struct {
	// Data is the frame payload.
	Data []byte
	// Addr is the peer endpoint: destination on TX, source on RX.
	Addr Addr
	// RxStamp is an RX frame's kernel receive time in Unix nanoseconds
	// (CLOCK_REALTIME, SO_TIMESTAMPNS): when the packet reached the
	// receiving host, before any socket queue or loop held it. 0 means
	// unknown — the per-packet engine, non-Linux builds, simulated and
	// in-memory transports. Unused on TX.
	RxStamp int64
	// dbg is the erpcdebug sanitizer's hand-out record: zero-sized in
	// release builds, and not last, where it would pad the struct.
	dbg frameDebug
	// pool receives Data on Release; nil for frames that no pool backs
	// (the UDP transport's, and TX frames).
	pool *Pool
}

// PooledFrame binds a buffer to the pool it returns to on Release.
// RX frames are released on the goroutine that received them, the
// pool's owner, so Release stays on the lock-free owner path.
func PooledFrame(data []byte, from Addr, p *Pool) Frame {
	return Frame{Data: data, Addr: from, pool: p}
}

// Release ends the receiver's hold on the frame and returns a pooled
// frame's buffer to its pool on the owner fast path. Safe to call on a
// zero or already-released frame.
func (f *Frame) Release() {
	f.dbg.release()
	if f.pool != nil {
		f.pool.Put(f.Data)
		f.pool = nil
	}
	f.Data = nil
}

// ReleaseBurst releases every frame of a burst.
func ReleaseBurst(frames []Frame) {
	for i := range frames {
		frames[i].Release()
	}
}

// PoolStats is a snapshot of a Pool's recycle counters (see
// Pool.Stats).
type PoolStats struct {
	// News counts buffers created because both free lists were empty;
	// a steady-state datapath stops adding to it after warm-up.
	News uint64
	// FastPuts counts lock-free owner-path recycles (Put) that were
	// retained; buffers dropped at the free-list limit don't count.
	FastPuts uint64
	// SharedPuts counts cross-goroutine recycles through the
	// mutex-guarded slow path (PutShared) that were retained.
	SharedPuts uint64
	// Refills counts owner Gets that ran dry and swapped in the shared
	// list under the mutex — the owner side's only lock acquisitions.
	Refills uint64
}

// Pool is a recycling pool of packet buffers, the software stand-in
// for a NIC's registered RX/TX buffer ring. Get returns a zero-length
// slice with at least the capacity given to NewPool; Put recycles one.
// In steady state a datapath running on a Pool performs no heap
// allocation.
//
// # Ownership
//
// A Pool has one owner: the goroutine (or single dispatch context)
// that calls Get and Put. The owner path is a plain free list touched
// without any lock — per-endpoint pools on this path share no mutable
// cache line with any other core, the paper's per-thread hugepage
// allocator discipline (§4.3). An in-memory transport whose owner
// releases its RX frames stays on it. A goroutine other than the owner
// returns buffers through PutShared; the owner migrates the shared list
// back to its free list in one locked swap when it runs dry, so the
// mutex is touched once per refill, never per steady-state Get/Put.
type Pool struct {
	bufCap int
	limit  int

	// Owner state: only the owning goroutine touches these.
	free     [][]byte
	fastPuts atomic.Uint64
	refills  atomic.Uint64
	news     atomic.Uint64

	// Shared slow path: cross-goroutine returns, under mu.
	mu         sync.Mutex
	shared     [][]byte
	sharedPuts atomic.Uint64

	// dbg is the erpcdebug sanitizer state: zero-sized and inert in
	// release builds (see debug_off.go / debug_on.go).
	dbg poolDebug
}

// NewPool returns a pool of buffers with the given capacity (typically
// the transport MTU, plus any transport-internal headroom). limit
// bounds the number of free buffers retained on each of the two lists;
// <= 0 means a default sized like a large NIC ring.
func NewPool(bufCap, limit int) *Pool {
	if bufCap <= 0 {
		panic("transport: Pool bufCap must be positive")
	}
	if limit <= 0 {
		limit = 8192
	}
	return &Pool{bufCap: bufCap, limit: limit}
}

// News reports how many buffers were created because the pool ran dry
// (the steady-state datapath should stop adding to it).
func (p *Pool) News() uint64 { return p.news.Load() }

// Stats returns a snapshot of the pool's recycle counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		News:       p.news.Load(),
		FastPuts:   p.fastPuts.Load(),
		SharedPuts: p.sharedPuts.Load(),
		Refills:    p.refills.Load(),
	}
}

// popLast removes and returns the last buffer of a free list, clearing
// the vacated slot so the list doesn't pin released buffers.
func popLast(list *[][]byte) []byte {
	n := len(*list)
	b := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return b[:0]
}

// Get returns a zero-length buffer with the pool's capacity. Owner only.
// The fast path (free list non-empty) is lock-free; a dry free list
// swaps in the shared list under one lock before allocating.
func (p *Pool) Get() []byte {
	if len(p.free) > 0 {
		b := popLast(&p.free)
		p.dbg.onGet(b)
		return b
	}
	if p.refill() {
		b := popLast(&p.free)
		p.dbg.onGet(b)
		return b
	}
	p.news.Add(1)
	b := make([]byte, 0, p.bufCap)
	p.dbg.onGet(b)
	return b
}

// refill swaps the (empty) owner free list with the shared list under
// the mutex, reporting whether any buffers came back. Owner only.
func (p *Pool) refill() bool {
	p.mu.Lock()
	if len(p.shared) == 0 {
		p.mu.Unlock()
		return false
	}
	p.free, p.shared = p.shared, p.free[:0]
	p.mu.Unlock()
	p.refills.Add(1)
	return true
}

// Put recycles a buffer obtained from Get. Owner only: the buffer goes
// back on the owner free list without any lock. Foreign or undersized
// buffers are rejected (dropped to the GC) rather than poisoning the
// pool.
func (p *Pool) Put(b []byte) {
	if cap(b) < p.bufCap {
		return
	}
	p.dbg.onPut(b, false)
	if len(p.free) < p.limit {
		p.fastPuts.Add(1)
		p.free = append(p.free, b[:0])
	}
}

// PutShared recycles a buffer from a goroutine other than the pool's
// owner: the mutex-guarded slow path. The owner reclaims the shared
// list in one swap the next time its free list runs dry.
func (p *Pool) PutShared(b []byte) {
	if cap(b) < p.bufCap {
		return
	}
	p.dbg.onPut(b, true)
	p.mu.Lock()
	if len(p.shared) < p.limit {
		p.sharedPuts.Add(1)
		p.shared = append(p.shared, b[:0])
	}
	p.mu.Unlock()
}

// GetShared takes a buffer from the shared list (or allocates) without
// touching the owner free list, for goroutines other than the pool's
// owner. It is a cold-path helper (tests, out-of-band injection); the
// datapath proper Gets only on the owner.
func (p *Pool) GetShared() []byte {
	p.mu.Lock()
	if len(p.shared) > 0 {
		b := popLast(&p.shared)
		p.mu.Unlock()
		p.dbg.onGet(b)
		return b
	}
	p.mu.Unlock()
	p.news.Add(1)
	b := make([]byte, 0, p.bufCap)
	p.dbg.onGet(b)
	return b
}
