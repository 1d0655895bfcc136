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
// A reader goroutine moves datagrams from the socket into a bounded
// ring of pooled buffers; the Rpc event loop drains the ring in bursts
// with RecvBurst and re-posts each buffer with Frame.Release after
// processing. The ring models the NIC RX queue: a fixed-capacity array
// indexed by head/tail (never resliced, so its memory footprint is
// constant), whose overflow drops packets exactly like an empty RQ.
// The datapath is allocation-free in steady state: RX buffers recycle
// through a Pool and datagrams are received straight into them (no
// per-packet copy), TX runs under one lock acquisition per burst, and
// all socket I/O avoids per-datagram address allocations.
//
// # Syscall engines
//
// The socket I/O itself is pluggable between three engines, chosen at
// run time from what the platform and the kernel offer:
//
//   - gso (Linux amd64/arm64, the default where the kernel accepts
//     UDP_SEGMENT/UDP_GRO — see UDPGsoSupported): the mmsg engine plus
//     segmentation offload. TX coalesces consecutive same-peer
//     equal-size frames of a burst into one supersegment datagram sent
//     with a UDP_SEGMENT cmsg, so up to ~44 MTU-sized (or hundreds of
//     small) datagrams traverse the kernel stack once; RX enables
//     UDP_GRO and splits returned supersegments back into pooled
//     frames at the cmsg-reported segment size. Bursts become
//     sendmmsg/recvmmsg calls *of supersegments*.
//   - mmsg (Linux amd64/arm64; the default where GSO is unavailable,
//     forced with NewUDPMmsg): SendBurst and the reader goroutine use
//     sendmmsg(2)/recvmmsg(2), so a full burst of N frames costs one
//     kernel crossing instead of N — the socket-world analogue of the
//     paper's one-DMA-flush-per-TX-burst discipline (§4.2). TX gathers
//     the 4-byte source prefix and the frame as a two-entry iovec, so
//     frames go to the kernel straight from the caller's buffers.
//   - per-packet (all platforms; the default elsewhere, forced with
//     NewUDPPerPacket): one ReadFromUDPAddrPort/WriteToUDPAddrPort per
//     datagram, the portable fallback.
//
// The Syscalls and MmsgBatches counters expose the difference: a
// loopback benchmark under the mmsg engine completes bursts with
// Syscalls ≈ bursts, while the per-packet engine pays Syscalls ≈
// packets. GsoSegments and GroBatches count datagrams moved inside TX
// supersegments and RX supersegments received coalesced — the gso
// engine's measure of per-datagram kernel stack traversals saved.
type UDP struct {
	conn  *net.UDPConn
	local Addr
	mtu   int
	eng   udpEngine

	mu    sync.Mutex
	peers map[Addr]udpDest
	wake  func()
	done  chan struct{}

	readerDone chan struct{} // closed when the reader goroutine exits
	closeOnce  sync.Once
	closeErr   error

	// RX ring: fixed storage, head/tail indices. count = tail - head;
	// slot i lives at ring[i & udpRingMask].
	ring [udpRingCap]udpPkt
	head uint64
	tail uint64

	rxPool *Pool

	// TX state, serialized independently of the RX ring so a send
	// burst never delays the reader goroutine.
	txMu      sync.Mutex
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
	// a burst of N frames on the mmsg engine is one syscall, one batch.
	Syscalls    atomic.Uint64
	MmsgBatches atomic.Uint64

	// GsoSegments counts datagrams transmitted inside multi-segment
	// UDP_SEGMENT supersegments, and GroBatches counts received
	// supersegments that carried more than one datagram (UDP_GRO
	// coalescing observed). Both are zero except on the gso engine;
	// each supersegment is one kernel stack traversal for all its
	// segments, which is the cost the engine exists to amortize.
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
	// name identifies the engine ("gso", "mmsg" or "per-packet").
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

// udpPkt is one RX ring slot. buf is the pooled wire buffer (including
// the 4-byte source prefix) that returns to the pool on Release; data
// is the frame payload aliasing buf's tail. When seg is non-nil the
// packet instead aliases one segment of a refcounted GRO supersegment
// (buf is nil) and releasing it drops one SegBuf reference.
type udpPkt struct {
	buf  []byte
	data []byte
	from Addr
	seg  *SegBuf
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

// Engine choices for the internal constructors: the best available
// syscall engine (gso → mmsg → per-packet), mmsg-at-best (the gso
// engine skipped), or the portable per-packet engine.
const (
	engAuto = iota
	engMmsg
	engPerPacket
)

// NewUDP binds a UDP socket at bind (e.g. "127.0.0.1:0") and returns a
// transport using the platform's best syscall engine: the
// segmentation-offload gso engine where the kernel supports
// UDP_SEGMENT/UDP_GRO, batched sendmmsg/recvmmsg on other Linux
// amd64/arm64, the portable per-packet engine elsewhere.
func NewUDP(local Addr, bind string) (*UDP, error) {
	return newUDP(local, bind, engAuto)
}

// NewUDPMmsg binds a UDP socket like NewUDP but without the
// segmentation-offload engine: batched sendmmsg/recvmmsg where
// compiled in, the per-packet fallback elsewhere. This is the only
// batched path on kernels without UDP_SEGMENT/UDP_GRO; the constructor
// lets tests and the benchmark's per-engine rows run it anywhere.
func NewUDPMmsg(local Addr, bind string) (*UDP, error) {
	return newUDP(local, bind, engMmsg)
}

// NewUDPPerPacket binds a UDP socket like NewUDP but forces the
// portable per-packet engine (one syscall per datagram) even where the
// batched engines are available, so the fallback path is exercised by
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
		// the engines can receive into them in place.
		rxPool:    NewPool(udpHdrLen+DefaultUDPMTU, udpRingCap+64),
		txScratch: make([]byte, udpHdrLen+DefaultUDPMTU),
	}
	switch {
	case choice == engPerPacket:
		u.eng = &perPacketEngine{u: u}
	case choice == engAuto && GsoSupported && UDPGsoSupported():
		// newGsoEngine falls back to the default engine itself if the
		// socket refuses UDP_GRO (e.g. an exotic socket type).
		u.eng = newGsoEngine(u)
	default:
		u.eng = newDefaultEngine(u)
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

// Engine reports which syscall engine this transport runs on: "gso"
// (segmentation offload over sendmmsg/recvmmsg), "mmsg" (batched
// sendmmsg/recvmmsg) or "per-packet".
func (u *UDP) Engine() string { return u.eng.name() }

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
	// mmsg engine writes raw sockaddr_in6 structs, whose Scope_id is
	// numeric (netip only carries the zone name).
	var scope uint32
	if zone := ap.Addr().Zone(); zone != "" {
		if ifi, err := net.InterfaceByName(zone); err == nil {
			scope = uint32(ifi.Index)
		} else if n, err := strconv.Atoi(zone); err == nil {
			scope = uint32(n)
		}
	}
	u.mu.Lock()
	u.peers[a] = udpDest{ap: ap, scope: scope}
	u.mu.Unlock()
	return nil
}

// MTU implements Transport.
func (u *UDP) MTU() int { return u.mtu }

// LocalAddr implements Transport.
func (u *UDP) LocalAddr() Addr { return u.local }

// SendBurst implements Transport. Frames to unknown peers are dropped,
// as are oversized frames; both are "network" losses from the RPC
// layer's point of view. The whole batch is transmitted under one TX
// lock acquisition (the paper's single DMA-queue flush per
// burst), with destinations resolved under one peer-table lock — and,
// on the mmsg engine, handed to the kernel in one sendmmsg call.
func (u *UDP) SendBurst(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	u.txMu.Lock()
	if cap(u.apScratch) < len(frames) {
		u.apScratch = make([]udpDest, len(frames))
	}
	dsts := u.apScratch[:len(frames)]
	u.mu.Lock()
	for i := range frames {
		dsts[i] = u.peers[frames[i].Addr]
	}
	u.mu.Unlock()
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

// enqueue pushes one received packet into the RX ring, dropping (and
// re-posting the buffer) on overflow, and wakes the event loop on the
// empty→non-empty transition. buf is the pooled wire buffer that
// Release re-posts; data is the frame payload aliasing it.
func (u *UDP) enqueue(buf, data []byte, from Addr) {
	u.enqueuePkt(udpPkt{buf: buf, data: data, from: from})
}

// enqueueSeg pushes one segment of a refcounted GRO supersegment into
// the RX ring: data aliases sb's buffer past the wire prefix, and the
// slot carries one of sb's pre-charged references (dropped on overflow,
// released with the frame otherwise).
func (u *UDP) enqueueSeg(sb *SegBuf, data []byte, from Addr) {
	u.enqueuePkt(udpPkt{seg: sb, data: data, from: from})
}

// enqueuePkt pushes one received packet into the RX ring, recycling
// its buffer on overflow. Runs on the reader goroutine, which owns
// u.rxPool.
//
//erpc:owner
func (u *UDP) enqueuePkt(p udpPkt) {
	u.mu.Lock()
	var wake func()
	if u.tail-u.head >= udpRingCap {
		u.Drops.Add(1)
		u.mu.Unlock()
		if p.seg != nil {
			p.seg.release()
		} else {
			u.rxPool.Put(p.buf)
		}
		return
	}
	if u.tail == u.head {
		wake = u.wake
	}
	u.ring[u.tail&udpRingMask] = p
	u.tail++
	u.mu.Unlock()
	if wake != nil {
		wake()
	}
}

// RecvBurst implements Transport: the ring is drained under a single
// lock acquisition per burst. Each frame's buffer returns to the RX
// pool via Release — frames are marked for the shared release path,
// since the dispatch goroutine that drains the ring is not the reader
// goroutine that owns the pool; releasing a whole burst through
// ReleaseBurst costs one pool lock per burst.
func (u *UDP) RecvBurst(frames []Frame) int {
	u.mu.Lock()
	n := 0
	for n < len(frames) && u.head != u.tail {
		p := &u.ring[u.head&udpRingMask]
		if p.seg != nil {
			frames[n] = Frame{Data: p.data, Addr: p.from, seg: p.seg}
		} else {
			frames[n] = Frame{Data: p.data, Addr: p.from, pool: u.rxPool, base: p.buf, shared: true}
		}
		*p = udpPkt{}
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
// default where mmsg is unavailable.
type perPacketEngine struct{ u *UDP }

func (e *perPacketEngine) name() string { return "per-packet" }

func (e *perPacketEngine) sendBurst(dsts []udpDest, frames []Frame) {
	for i := range frames {
		e.u.sendOne(dsts[i].ap, frames[i].Data)
	}
}

// readLoop is the reader-goroutine body: one pooled buffer per
// ReadFromUDPAddrPort, handed to the RX ring or recycled.
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
		u.enqueue(buf[:n], buf[udpHdrLen:n], parseHdr(buf))
	}
}

var _ Transport = (*UDP)(nil)
