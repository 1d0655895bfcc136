package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
)

// UDP is a Transport over a real UDP socket. It exists so that eRPC is
// a usable RPC library on commodity kernels, not only a simulation
// artifact; the paper's userspace-NIC datapath is replaced by a socket
// (documented substitution: same unreliable-datagram semantics, higher
// latency).
//
// A reader goroutine (the engine's readLoop) turns what the socket
// delivers into Frames and hands them to the dispatch goroutine through
// the RX ring, the RQ the core's session budget divides: a fixed array
// of Frames indexed by head/tail (never resliced, so its footprint is
// constant), whose overflow drops packets exactly like an empty RQ.
// The hand-off is a burst each way under the one lock u.mu: the reader
// publishes the frames of one receive (one recvmmsg on the batched
// engine, one datagram on the per-packet engine) and wakes the loop if
// the ring was empty, RecvBurst copies a burst out, and the loop
// re-posts the buffers with ReleaseBurst after processing. TX has its
// own lock (txMu: the peer table and the engine's TX arrays), so a send
// burst and the reader never wait on each other. Steady state allocates
// nothing: RX buffers recycle through a Pool (and, for GRO-coalesced
// receives, a pool of refcounted SegBufs), and socket I/O avoids
// per-datagram address allocations.
//
// The socket I/O is one of two engines, picked at construction: the
// batched engine (Linux amd64/arm64: sendmmsg/recvmmsg, plus
// UDP_SEGMENT/UDP_GRO where the kernel and the socket accept them; see
// udp_batch_linux.go) or the portable per-packet engine below.
type UDP struct {
	conn  *net.UDPConn
	local Addr
	mtu   int
	eng   udpEngine

	// stamped is set when the engine's socket delivers kernel receive
	// times (Frame.RxStamp); see RxStamps.
	stamped bool

	// mu guards the RX ring and wake, nothing else.
	mu   sync.Mutex
	wake func()
	done chan struct{}

	readerDone chan struct{} // closed when the reader goroutine exits
	closeOnce  sync.Once
	closeErr   error

	// RX ring: fixed storage, head/tail indices. count = tail - head;
	// slot i lives at ring[i & udpRingMask].
	ring [udpRingCap]Frame
	head uint64
	tail uint64

	// Reader-goroutine state: the wire-buffer pool it owns and the
	// frames of the receive in hand (see stage).
	rxPool  *Pool
	rxBatch []Frame

	// TX state, serialized independently of the RX ring so a send
	// burst never delays the reader goroutine.
	txMu      sync.Mutex
	peers     map[Addr]udpDest
	txScratch []byte    // one frame being prefixed for the wire (per-packet engine)
	apScratch []udpDest // per-burst resolved destinations

	// Drops counts ring-overflow drops. Atomic: the hot reader
	// goroutine increments it while exit reports read it live.
	Drops atomic.Uint64

	// Syscalls counts kernel crossings that moved data-plane packets
	// (sendto/sendmmsg/recvfrom/recvmmsg invocations that transferred
	// at least one datagram). MmsgBatches counts the subset that moved
	// more than one datagram in a single syscall — always zero on the
	// per-packet engine. Together they verify the batched datapath:
	// a burst of N frames on the batched engine is one syscall, one
	// batch.
	Syscalls    atomic.Uint64
	MmsgBatches atomic.Uint64

	// GsoSegments counts datagrams transmitted inside multi-segment
	// UDP_SEGMENT supersegments, and GroBatches counts received
	// supersegments that carried more than one datagram (UDP_GRO
	// coalescing observed). Both are zero unless the batched engine has
	// its offload capability ("gso"); each supersegment is one kernel
	// stack traversal for all its segments.
	GsoSegments atomic.Uint64
	GroBatches  atomic.Uint64

	// GroAliasedSegs counts segments of coalesced receives delivered as
	// zero-copy aliases of their refcounted supersegment buffer, and
	// GroCopiedSegs counts segments of coalesced receives that fell
	// back to a pooled copy (alias budget exhausted). Together they
	// verify the zero-copy GRO split: a healthy gso datapath keeps
	// GroCopiedSegs at zero. Uncoalesced datagrams (nothing to
	// amortize) count under neither.
	GroAliasedSegs atomic.Uint64
	GroCopiedSegs  atomic.Uint64
}

// udpEngine is the socket-I/O strategy: how bursts reach the kernel
// and how the reader goroutine pulls datagrams out of it. Both engines
// share the UDP core (peer table, RX ring, pool, wake).
type udpEngine interface {
	// name is what Engine reports: "per-packet", or for the batched
	// engine "gso" or "mmsg" with its offload capability on or off.
	name() string
	// sendBurst transmits resolved frames. Called with u.txMu held;
	// dsts[i] is the resolved destination of frames[i] (invalid =>
	// unknown peer, to be dropped).
	sendBurst(dsts []udpDest, frames []Frame)
	// readLoop is the reader-goroutine body: it moves datagrams from
	// the socket into the RX ring until the socket is closed.
	readLoop()
}

// udpDest is a resolved peer: the UDP address plus, for link-local
// IPv6 destinations, the numeric scope (interface index) that raw
// sockaddr_in6 structs need — netip carries the zone as a string,
// which only the net package's own write path can use.
type udpDest struct {
	ap    netip.AddrPort
	scope uint32
}

// DefaultUDPMTU bounds frames to a safe datagram size.
const DefaultUDPMTU = 1472

// udpHdrLen is the wire prefix: the 4-byte source eRPC address that
// lets the receiver demultiplex without a reverse peer table.
const udpHdrLen = 4

// udpRingCap is the RX ring capacity in packets, sized like a large
// NIC RQ. Must be a power of two (head/tail indices wrap by masking).
const (
	udpRingCap  = 8192
	udpRingMask = udpRingCap - 1
)

// udpRxBatch is the reader's staging capacity: a full receive window of
// full GRO supersegments (8 × 64). A receive that splits into more
// publishes in pieces.
const udpRxBatch = 512

// Engine choices for the internal constructors: the batched engine with
// whatever it can offload, the batched engine with offload forced off,
// or the per-packet engine. The first two are the per-packet engine
// where the batched one is not compiled in.
const (
	engAuto = iota
	engMmsg
	engPerPacket
)

// NewUDP binds a UDP socket at bind (e.g. "127.0.0.1:0") and returns a
// transport on the platform's best engine: batched on Linux
// amd64/arm64 (with UDP_SEGMENT/UDP_GRO where the kernel and the socket
// accept them), per-packet elsewhere.
func NewUDP(local Addr, bind string) (*UDP, error) {
	return newUDP(local, bind, engAuto)
}

// NewUDPMmsg binds a UDP socket like NewUDP but with the batched
// engine's segmentation offload forced off: what NewUDP runs on a
// kernel without UDP_SEGMENT/UDP_GRO. The constructor lets tests and
// the benchmark's per-engine rows run that path anywhere.
func NewUDPMmsg(local Addr, bind string) (*UDP, error) {
	return newUDP(local, bind, engMmsg)
}

// NewUDPPerPacket binds a UDP socket like NewUDP but forces the
// portable per-packet engine (one syscall per datagram) even where the
// batched engine is available, so the fallback path is exercised by
// tests and measured by the benchmark on Linux.
func NewUDPPerPacket(local Addr, bind string) (*UDP, error) {
	return newUDP(local, bind, engPerPacket)
}

func newUDP(local Addr, bind string, choice int) (*UDP, error) {
	la, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	return newUDPConn(local, conn, choice), nil
}

// newUDPConn wraps an already-bound socket (ListenUDPShards binds its
// own sockets with SO_REUSEPORT set) and starts the reader goroutine.
func newUDPConn(local Addr, conn *net.UDPConn, choice int) *UDP {
	u := &UDP{
		conn:       conn,
		local:      local,
		mtu:        DefaultUDPMTU,
		peers:      map[Addr]udpDest{},
		done:       make(chan struct{}),
		readerDone: make(chan struct{}),
		// Pool buffers hold a whole wire datagram (prefix + frame) so
		// the per-packet engine can receive into them in place.
		rxPool:    NewPool(udpHdrLen+DefaultUDPMTU, udpRingCap+64),
		rxBatch:   make([]Frame, 0, udpRxBatch),
		txScratch: make([]byte, udpHdrLen+DefaultUDPMTU),
	}
	if choice == engPerPacket {
		u.eng = &perPacketEngine{u: u}
	} else {
		u.eng = newBatchEngine(u, choice == engAuto)
	}
	go func() {
		defer close(u.readerDone)
		u.eng.readLoop()
	}()
	return u
}

// ListenUDPShards opens n sockets for the endpoints (node, 0..n-1) of
// a sharded multi-endpoint process, all bound to the same UDP address
// via SO_REUSEPORT where supported (Linux amd64/arm64 — see
// ReusePortSupported): the kernel hashes each remote flow's 4-tuple to
// one shard, so a session's frames always land on the same shard's
// socket and shards never touch each other's RX ring, wire-buffer pool,
// or syscall-engine state. bind may use port 0; shard 0 then picks the
// port and the rest join it.
//
// On platforms without SO_REUSEPORT support the shards fall back to n
// distinct consecutive ports (ephemeral when bind's port is 0) behind
// the same resolver — functionally the per-port layout of ListenUDP,
// so callers wire peers via each shard's BoundAddr either way.
//
// Sharding is a receive-side feature for servers: server-mode sessions
// are created lazily on whichever shard the kernel picks, while a
// client-mode session's responses must reach the endpoint that issued
// the requests — give client endpoints distinct ports instead.
func ListenUDPShards(node uint16, bind string, n int) ([]*UDP, error) {
	if n <= 0 {
		return nil, fmt.Errorf("transport: ListenUDPShards needs n >= 1 (got %d)", n)
	}
	if !ReusePortSupported {
		return listenShardsFallback(node, bind, n)
	}
	shards := make([]*UDP, 0, n)
	addr := bind
	for i := 0; i < n; i++ {
		conn, err := listenReusePort(addr)
		if err != nil {
			for _, s := range shards {
				s.Close()
			}
			return nil, err
		}
		if i == 0 {
			// Pin the concrete address so the remaining shards join
			// shard 0's port even when bind asked for port 0.
			addr = conn.LocalAddr().String()
		}
		shards = append(shards, newUDPConn(Addr{Node: node, Port: uint16(i)}, conn, engAuto))
	}
	return shards, nil
}

// listenShardsFallback is the portable ListenUDPShards layout: n
// distinct ports (consecutive from bind's port, or all ephemeral when
// it is 0), one per shard.
func listenShardsFallback(node uint16, bind string, n int) ([]*UDP, error) {
	host, portStr, err := net.SplitHostPort(bind)
	if err != nil {
		return nil, fmt.Errorf("transport: bad shard bind %q: %w", bind, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("transport: bad shard bind port %q: %w", bind, err)
	}
	shards := make([]*UDP, 0, n)
	for i := 0; i < n; i++ {
		port := 0
		if basePort != 0 {
			port = basePort + i
		}
		u, err := NewUDP(Addr{Node: node, Port: uint16(i)},
			net.JoinHostPort(host, strconv.Itoa(port)))
		if err != nil {
			for _, s := range shards {
				s.Close()
			}
			return nil, err
		}
		shards = append(shards, u)
	}
	return shards, nil
}

// Engine reports which syscall engine this transport runs on:
// "per-packet", or the batched engine as "gso" (with segmentation
// offload) or "mmsg" (without).
func (u *UDP) Engine() string { return u.eng.name() }

// RxStamps reports whether received frames carry the kernel's receive
// time (Frame.RxStamp): true on the batched engine where the socket
// accepted SO_TIMESTAMPNS, false on the per-packet engine.
func (u *UDP) RxStamps() bool { return u.stamped }

// BoundAddr returns the socket's actual address (useful with port 0).
func (u *UDP) BoundAddr() *net.UDPAddr { return u.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer maps an eRPC address to a UDP destination. The peer table
// stands in for eRPC's sockets-based session management messaging.
func (u *UDP) AddPeer(a Addr, udpAddr string) error {
	ua, err := net.ResolveUDPAddr("udp", udpAddr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q: %w", udpAddr, err)
	}
	ap := ua.AddrPort()
	if ap.Addr().Is4In6() {
		// Normalize the mapped form so WriteToUDPAddrPort on a
		// dual-stack socket takes the IPv4 fast path.
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	// Resolve a link-local zone to its interface index once, here: the
	// batched engine writes raw sockaddr_in6 structs, whose Scope_id is
	// numeric (netip only carries the zone name).
	var scope uint32
	if zone := ap.Addr().Zone(); zone != "" {
		if ifi, err := net.InterfaceByName(zone); err == nil {
			scope = uint32(ifi.Index)
		} else if n, err := strconv.Atoi(zone); err == nil {
			scope = uint32(n)
		}
	}
	u.txMu.Lock()
	u.peers[a] = udpDest{ap: ap, scope: scope}
	u.txMu.Unlock()
	return nil
}

// MTU implements Transport.
func (u *UDP) MTU() int { return u.mtu }

// LocalAddr implements Transport.
func (u *UDP) LocalAddr() Addr { return u.local }

// SendBurst implements Transport. Frames to unknown peers are dropped,
// as are oversized frames; both are "network" losses from the RPC
// layer's point of view. The whole batch is resolved and transmitted
// under one acquisition of the TX lock (the paper's single DMA-queue
// flush per burst) and, on the batched engine, handed to the kernel in
// one sendmmsg call.
func (u *UDP) SendBurst(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	u.txMu.Lock()
	if cap(u.apScratch) < len(frames) {
		u.apScratch = make([]udpDest, len(frames))
	}
	dsts := u.apScratch[:len(frames)]
	for i := range frames {
		dsts[i] = u.peers[frames[i].Addr]
	}
	u.eng.sendBurst(dsts, frames)
	u.txMu.Unlock()
}

// sendOne prefixes one frame with the 4-byte source address and writes
// it to the socket as a single datagram. Callers hold txMu, which
// guards txScratch.
func (u *UDP) sendOne(ap netip.AddrPort, frame []byte) {
	if !ap.IsValid() || len(frame) > u.mtu {
		return
	}
	pkt := u.txScratch[:udpHdrLen+len(frame)]
	u.putHdr(pkt)
	copy(pkt[udpHdrLen:], frame)
	if _, err := u.conn.WriteToUDPAddrPort(pkt, ap); err == nil { // best-effort: unreliable transport
		u.Syscalls.Add(1)
	}
}

// putHdr writes the 4-byte source-address wire prefix.
func (u *UDP) putHdr(pkt []byte) {
	pkt[0] = byte(u.local.Node >> 8)
	pkt[1] = byte(u.local.Node)
	pkt[2] = byte(u.local.Port >> 8)
	pkt[3] = byte(u.local.Port)
}

// parseHdr decodes the source address from a wire buffer (len >= 4).
func parseHdr(buf []byte) Addr {
	return Addr{
		Node: uint16(buf[0])<<8 | uint16(buf[1]),
		Port: uint16(buf[2])<<8 | uint16(buf[3]),
	}
}

// rxFrame is the RX frame of one wire buffer of u.rxPool: the payload
// past the source prefix, released from the dispatch goroutine (shared),
// received by the kernel at stamp (0: unknown).
func (u *UDP) rxFrame(buf []byte, stamp int64) Frame {
	return Frame{Data: buf[udpHdrLen:], Addr: parseHdr(buf), RxStamp: stamp, pool: u.rxPool, base: buf, shared: true}
}

// stage adds one frame to the receive in hand. Reader goroutine only.
// A full batch publishes itself first: a hostile GRO stride can split
// one 64 KiB receive into thousands of segments.
func (u *UDP) stage(f Frame) {
	if len(u.rxBatch) == cap(u.rxBatch) {
		u.flushRx()
	}
	u.rxBatch = append(u.rxBatch, f)
}

// flushRx publishes the staged frames. Reader goroutine only.
func (u *UDP) flushRx() {
	u.publish(u.rxBatch)
	u.rxBatch = u.rxBatch[:0]
}

// publish hands a burst of received frames to the RX ring under one
// lock acquisition and wakes the event loop once if the ring was empty.
// What does not fit is dropped like packets at a full RQ: counted in
// Drops and released after the unlock. Runs on the reader goroutine,
// which owns u.rxPool, so dropped buffers go back on its lock-free
// path.
//
//erpc:owner
func (u *UDP) publish(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	u.mu.Lock()
	n := min(len(frames), int(udpRingCap-(u.tail-u.head)))
	var wake func()
	if n > 0 && u.tail == u.head {
		wake = u.wake
	}
	at := int(u.tail & udpRingMask)
	k := copy(u.ring[at:], frames[:n])
	copy(u.ring[:], frames[k:n]) // the part that wrapped
	u.tail += uint64(n)
	u.mu.Unlock()
	if wake != nil {
		wake()
	}
	if n < len(frames) {
		u.Drops.Add(uint64(len(frames) - n))
		for i := n; i < len(frames); i++ {
			frames[i].shared = false
			frames[i].Release()
		}
	}
}

// RecvBurst implements Transport: a burst of frames is copied out of
// the ring under a single lock acquisition. Pooled frames are marked
// for the shared release path, since the dispatch goroutine that drains
// the ring is not the reader goroutine that owns the pool; releasing a
// whole burst through ReleaseBurst costs one pool lock per burst.
func (u *UDP) RecvBurst(frames []Frame) int {
	u.mu.Lock()
	n := 0
	for n < len(frames) && u.head != u.tail {
		p := &u.ring[u.head&udpRingMask]
		frames[n] = *p
		*p = Frame{} // the slot must not pin a buffer it no longer owns
		u.head++
		n++
	}
	u.mu.Unlock()
	return n
}

// SetWake implements Transport.
func (u *UDP) SetWake(fn func()) {
	u.mu.Lock()
	u.wake = fn
	u.mu.Unlock()
}

// Close implements Transport. It is idempotent: closing an
// already-closed transport is a no-op returning the first result.
// Close joins the reader goroutine before returning, so afterwards the
// caller may read the transport's counters — including the RX pool's
// owner-side stats — without racing it.
func (u *UDP) Close() error {
	u.closeOnce.Do(func() {
		close(u.done)
		u.closeErr = u.conn.Close()
		<-u.readerDone
	})
	return u.closeErr
}

// RxPoolStats snapshots the RX wire-buffer pool's recycle counters
// (allocations, lock-free owner recycles, cross-goroutine shared
// recycles, refill swaps). Owner-side counters move while the reader
// goroutine runs; for an exact snapshot call after Close.
func (u *UDP) RxPoolStats() PoolStats { return u.rxPool.Stats() }

// closed reports whether Close has been called (used by the engines'
// read loops to tell shutdown from transient socket errors).
func (u *UDP) closed() bool {
	select {
	case <-u.done:
		return true
	default:
		return false
	}
}

// perPacketEngine is the portable fallback: one syscall per datagram
// through the net package. It is compiled on every platform and is the
// default where the batched engine is not.
type perPacketEngine struct{ u *UDP }

func (e *perPacketEngine) name() string { return "per-packet" }

func (e *perPacketEngine) sendBurst(dsts []udpDest, frames []Frame) {
	for i := range frames {
		e.u.sendOne(dsts[i].ap, frames[i].Data)
	}
}

// readLoop is the reader-goroutine body: one pooled buffer per
// ReadFromUDPAddrPort, published to the RX ring or recycled.
//
//erpc:owner
func (e *perPacketEngine) readLoop() {
	u := e.u
	for {
		// Receive straight into a pooled wire buffer; the payload
		// aliases it past the prefix, so there is no per-packet copy.
		buf := u.rxPool.Get()
		buf = buf[:cap(buf)]
		n, _, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			u.rxPool.Put(buf)
			if u.closed() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		u.Syscalls.Add(1)
		if n < udpHdrLen {
			u.rxPool.Put(buf)
			continue
		}
		u.stage(u.rxFrame(buf[:n], 0))
		u.flushRx()
	}
}

var _ Transport = (*UDP)(nil)
