package transport

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// UDP is a Transport over a real UDP socket. It exists so that eRPC is
// a usable RPC library on commodity kernels, not only a simulation
// artifact; the paper's userspace-NIC datapath is replaced by a socket
// (documented substitution: same unreliable-datagram semantics, higher
// latency).
//
// The socket is the RX queue, and the goroutine that calls RecvBurst —
// an endpoint's dispatch goroutine — receives from it itself, as the
// paper's dispatch thread polls its own RX queue (§4.1–4.2): RecvBurst
// makes one non-blocking receive (one recvmmsg on the batched engine,
// reads until the socket is empty or the burst full on the per-packet
// engine), and what a receive splits into beyond the burst waits for the
// next call. That goroutine is the owner of the RX side: it alone
// receives, and it releases every frame of a burst before its next
// RecvBurst or Wait. An idle owner sleeps in Wait, parked in the
// netpoller on this socket until a packet, its deadline or an Interrupt
// from any goroutine ends it; no goroutine stands between the socket
// and the loop. A Wait that finds packets has received them, and when
// its receive drained the socket the next RecvBurst hands them out
// without receiving again: the wait's receive is that pass's poll, as
// the paper's dispatch thread finds a packet and handles it in one loop
// iteration. The kernel's receive buffer is the queue's depth (RcvBuf)
// and its overflow is counted in Drops.
//
// Every RX frame aliases one of two receive windows the transport owns
// (no copy, on every engine), and each receive fills the window the
// last receive that staged frames did not: a burst may hold the rest of
// one receive and the start of the next, and by the owner's rule both
// are released before a receive reaches either window again, as the
// paper's dispatch thread re-posts its RX queue in bulk (§4.3.1).
//
// The owner is the TX side's one user too: only it calls SendBurst, so
// the peer table and the engine's TX arrays take no lock, as the
// paper's dispatch thread owns its TX queue. AddPeer fills the peer
// table before the owner's first send. Steady state allocates nothing:
// RX frames alias the windows, and socket I/O avoids per-datagram
// address allocations.
//
// The socket I/O is one of two engines, picked at construction: the
// batched engine (Linux amd64/arm64: sendmmsg/recvmmsg, plus
// UDP_SEGMENT/UDP_GRO where the kernel and the socket accept them; see
// udp_batch_linux.go) or the portable per-packet engine below.
type UDP struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	local Addr
	mtu   int
	eng   udpEngine

	// stamped is set when the engine's socket delivers kernel receive
	// times (Frame.RxStamp); see RxStamps.
	stamped bool
	// rcvBuf is the socket's receive buffer as the kernel granted it;
	// see RcvBuf.
	rcvBuf int

	// RX state, the owner's alone: the windows, of which the next
	// receive fills rxWin[rxCur], the frames of the last receive that no
	// burst has taken yet, rx[rxHead:] (at most udpRxBatch), whether
	// they are what a Wait's receive staged as it drained the socket
	// (rxDrained: the next RecvBurst does not receive), and the
	// erpcdebug sanitizer's hand-out counts (zero-sized in release).
	rxWin     [2][]byte
	rxCur     int
	rx        []Frame
	rxHead    int
	rxDrained bool
	rxDbg     rxDebug

	// The wait (see Wait): Interrupt sets intr, which the next Wait
	// consumes; waiting is set while a Wait may be parked, and tells
	// Interrupt to move the read deadline into the past.
	intr    atomic.Bool
	waiting atomic.Bool
	closed  atomic.Bool

	// mu guards wake and the start of the SetWake goroutine.
	mu        sync.Mutex
	wake      func()
	wakeDone  chan struct{} // closed when the SetWake goroutine exits; nil until it starts
	closeOnce sync.Once
	closeErr  error

	// TX state, the owner's alone (see SendBurst).
	peers     map[Addr]udpDest
	txScratch []byte // one frame being prefixed for the wire (per-packet engine)

	// Drops counts datagrams the kernel dropped at this socket, its
	// receive buffer full: the cumulative count (SO_RXQ_OVFL) the
	// batched engine reads off each receive, as of the newest datagram
	// received, so drops after it show with the next one. The
	// per-packet engine cannot see the count and reports 0.
	Drops atomic.Uint64

	// Syscalls counts kernel crossings that moved data-plane packets
	// (sendto/sendmmsg/read/recvmmsg invocations that transferred at
	// least one datagram). MmsgBatches counts the subset that moved
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

	// GroAliasedSegs counts the frames split out of coalesced receives
	// (GroBatches), each aliasing its segment of the window; zero unless
	// UDP_GRO coalesced.
	GroAliasedSegs atomic.Uint64
}

// udpEngine is the socket-I/O strategy: how bursts reach the kernel
// and how the owner pulls datagrams out of it. Both engines share the
// UDP core (peer table, windows, leftover, wait). recv and wait run on
// the owner, receive into the window rxWin[rxCur] and stage what they
// receive on u.rx, which is empty when they are called; both report
// whether their receive drained the socket, which a receive that
// returns less than its window has (fewer messages than the window's
// slots on the batched engine, a stop at EAGAIN on the per-packet
// engine).
type udpEngine interface {
	// name is what Engine reports: "per-packet", or for the batched
	// engine "gso" or "mmsg" with its offload capability on or off.
	name() string
	// sendBurst transmits frames, each to its peer in u.peers; frames
	// to unknown peers are dropped.
	sendBurst(frames []Frame)
	// recv makes one non-blocking receive of at most max datagrams
	// (the batched engine takes one window whatever max says).
	recv(max int) (drained bool)
	// wait blocks in the netpoller, under the read deadline Wait set,
	// until a receive gets something, the deadline passes or the
	// socket is closed.
	wait() (drained bool)
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

// A receive window is udpRxSlots slots of udpRxSlotCap bytes, one
// datagram per slot of a recvmmsg, each up to a whole 64 KiB GRO
// supersegment.
const (
	udpRxSlots   = 8
	udpRxSlotCap = 1 << 16
)

// udpRxBatch bounds the leftover: a full receive window of full GRO
// supersegments (8 × 64). A receive that splits into more (only a
// hostile segment stride can) drops the excess.
const udpRxBatch = 512

// udpRcvBuf is the receive buffer each socket asks for: 8192 wire
// datagrams, the RQ the core's default session budget divides. The
// kernel caps the request at net.core.rmem_max (and doubles what it
// grants for its own bookkeeping); RcvBuf reports the result.
const udpRcvBuf = 8192 * (udpHdrLen + DefaultUDPMTU)

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
// own sockets with SO_REUSEPORT set).
func newUDPConn(local Addr, conn *net.UDPConn, choice int) *UDP {
	u := &UDP{
		conn:  conn,
		local: local,
		mtu:   DefaultUDPMTU,
		peers: map[Addr]udpDest{},
		rxWin: [2][]byte{
			make([]byte, udpRxSlots*udpRxSlotCap),
			make([]byte, udpRxSlots*udpRxSlotCap),
		},
		rx:        make([]Frame, 0, udpRxBatch),
		txScratch: make([]byte, udpHdrLen+DefaultUDPMTU),
	}
	// A net.UDPConn always has its raw connection; the error is for
	// types that do not.
	u.rc, _ = conn.SyscallConn()
	_ = conn.SetReadBuffer(udpRcvBuf)                                // best effort: RcvBuf says what the kernel granted
	_ = u.rc.Control(func(fd uintptr) { u.rcvBuf = sockRcvBuf(fd) }) // fails only once closed
	if choice == engPerPacket {
		u.eng = newPerPacketEngine(u)
	} else {
		u.eng = newBatchEngine(u, choice == engAuto)
	}
	return u
}

// ListenUDPShards opens n sockets for the endpoints (node, 0..n-1) of
// a sharded multi-endpoint process, all bound to the same UDP address
// via SO_REUSEPORT where supported (Linux amd64/arm64 — see
// ReusePortSupported): the kernel hashes each remote flow's 4-tuple to
// one shard, so a session's frames always land on the same shard's
// socket and shards never touch each other's receive queue, receive
// windows or syscall-engine state. bind may use port 0; shard 0 then
// picks the port and the rest join it.
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

// listenShardsFallback is the portable ListenUDPShards layout: the
// ListenUDP layout from bind's host and port, one port per shard.
func listenShardsFallback(node uint16, bind string, n int) ([]*UDP, error) {
	host, portStr, err := net.SplitHostPort(bind)
	if err != nil {
		return nil, fmt.Errorf("transport: bad shard bind %q: %w", bind, err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("transport: bad shard bind port %q: %w", bind, err)
	}
	return ListenUDP(node, host, basePort, n)
}

// ListenUDP opens n sockets for the endpoints (node, 0..n-1) of a
// multi-endpoint process at host:basePort .. host:basePort+n-1, or at n
// ephemeral ports when basePort is 0. On error, the sockets already
// bound are closed.
func ListenUDP(node uint16, host string, basePort, n int) ([]*UDP, error) {
	trs := make([]*UDP, 0, n)
	for i := 0; i < n; i++ {
		port := 0
		if basePort != 0 {
			port = basePort + i
		}
		u, err := NewUDP(Addr{Node: node, Port: uint16(i)},
			net.JoinHostPort(host, strconv.Itoa(port)))
		if err != nil {
			for _, t := range trs {
				t.Close()
			}
			return nil, err
		}
		trs = append(trs, u)
	}
	return trs, nil
}

// Engine reports which syscall engine this transport runs on:
// "per-packet", or the batched engine as "gso" (with segmentation
// offload) or "mmsg" (without).
func (u *UDP) Engine() string { return u.eng.name() }

// RxStamps reports whether received frames carry the kernel's receive
// time (Frame.RxStamp): true on the batched engine where the socket
// accepted SO_TIMESTAMPNS, false on the per-packet engine.
func (u *UDP) RxStamps() bool { return u.stamped }

// RcvBuf reports the socket's receive buffer in bytes as the kernel
// granted it (SO_RCVBUF read back; Linux reports double the request it
// accepted, up to net.core.rmem_max), or 0 where it cannot be read. It
// is the depth of the RX queue, the one the session budget divides.
func (u *UDP) RcvBuf() int { return u.rcvBuf }

// BoundAddr returns the socket's actual address (useful with port 0).
func (u *UDP) BoundAddr() *net.UDPAddr { return u.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer maps an eRPC address to a UDP destination. The peer table
// stands in for eRPC's sockets-based session management messaging.
// SendBurst reads it without a lock, so AddPeer runs before the owner's
// first SendBurst, or on the owner.
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
	u.peers[a] = udpDest{ap: ap, scope: scope}
	return nil
}

// MTU implements Transport.
func (u *UDP) MTU() int { return u.mtu }

// LocalAddr implements Transport.
func (u *UDP) LocalAddr() Addr { return u.local }

// SendBurst implements Transport on the owner, the one goroutine that
// sends (see UDP). Frames to unknown peers are dropped, as are
// oversized frames; both are "network" losses from the RPC layer's
// point of view. On the batched engine the whole batch is handed to the
// kernel in one sendmmsg call (the paper's single DMA-queue flush per
// burst).
func (u *UDP) SendBurst(frames []Frame) { u.eng.sendBurst(frames) }

// sendOne prefixes one frame with the 4-byte source address and writes
// it to the socket as a single datagram.
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

// rxRoom is how many more frames the leftover takes.
func (u *UDP) rxRoom() int { return cap(u.rx) - len(u.rx) }

// stage adds one received wire datagram to the leftover as a frame
// aliasing it: the payload past the source prefix, received by the
// kernel at stamp (0: unknown). Callers check rxRoom and that pkt holds
// the prefix.
func (u *UDP) stage(pkt []byte, stamp int64) {
	u.rx = append(u.rx, Frame{Data: pkt[udpHdrLen:len(pkt):len(pkt)], Addr: parseHdr(pkt), RxStamp: stamp})
	u.rxDbg.onStage(&u.rx[len(u.rx)-1], u.rxCur)
}

// splitRxSegs stages the ln bytes received into buf — a GRO-coalesced
// supersegment, or a plain datagram — as frames aliasing its segments
// at the given stride, each with the receive's kernel stamp, and
// reports how many segments it saw. Segments beyond the leftover's room
// are dropped: only a hostile stride yields more than a window holds.
//
// Stride and length arrive from outside the process, so the split is
// paranoid: a non-positive or oversized stride degrades to one
// whole-buffer segment, a short trailing segment is clamped to the
// receive length, segments shorter than the wire prefix or longer than
// a wire datagram are dropped, and a length beyond buf drops the
// receive.
func (u *UDP) splitRxSegs(buf []byte, ln, stride int, stamp int64) (nseg int) {
	if ln <= 0 || ln > len(buf) {
		return 0
	}
	if stride <= 0 || stride > ln {
		stride = ln
	}
	total := (ln + stride - 1) / stride
	staged := len(u.rx)
	for off := 0; off < ln && u.rxRoom() > 0; off += stride {
		pkt := buf[off:min(off+stride, ln)]
		if len(pkt) < udpHdrLen || len(pkt) > udpHdrLen+u.mtu {
			continue
		}
		u.stage(pkt, stamp)
	}
	if total >= 2 {
		u.GroAliasedSegs.Add(uint64(len(u.rx) - staged))
	}
	return total
}

// takeRx moves the leftover's oldest frames into frames and returns
// how many.
func (u *UDP) takeRx(frames []Frame) int {
	n := copy(frames, u.rx[u.rxHead:])
	clear(u.rx[u.rxHead : u.rxHead+n]) // the leftover must not pin bytes it no longer owns
	u.rxHead += n
	if u.rxHead == len(u.rx) {
		u.rx, u.rxHead = u.rx[:0], 0
	}
	u.rxDbg.onTake(frames[:n])
	return n
}

// receive makes one receive into window rxCur, the leftover empty: a
// non-blocking one of at most max datagrams, or with park the one Wait
// parks in. One that staged frames moves rxCur to the other window. It
// reports whether the receive drained the socket.
func (u *UDP) receive(max int, park bool) (drained bool) {
	u.rxDbg.onRecv(u.rxCur)
	if park {
		drained = u.eng.wait()
	} else {
		drained = u.eng.recv(max)
	}
	if len(u.rx) > 0 {
		u.rxCur ^= 1
	}
	return drained
}

// RecvBurst implements Transport on the owner: the rest of the last
// receive first, then, if the burst has room, one non-blocking receive —
// unless that rest is what a Wait's receive staged as it drained the
// socket, which is then all the burst gets: the socket was empty a
// moment ago, and a receive now would most likely find it so again.
// After Close it drops what was left over and returns nothing.
func (u *UDP) RecvBurst(frames []Frame) int {
	drained := u.rxDrained
	u.rxDrained = false
	if u.closed.Load() {
		clear(u.rx)
		u.rx, u.rxHead = u.rx[:0], 0
		return 0
	}
	n := u.takeRx(frames)
	if n < len(frames) && !drained {
		u.receive(len(frames)-n, false)
		n += u.takeRx(frames[n:])
	}
	return n
}

// aLongTimeAgo is a read deadline in the past: it ends a parked Wait.
var aLongTimeAgo = time.Unix(1, 0)

// Wait implements Waiter on the owner. It parks in the netpoller on the
// socket (RawConn.Read, with a closure that receives without blocking
// and asks to park while the socket is empty) under a read deadline d
// away, so a packet ends it already received into the leftover, and so
// do the deadline, an Interrupt (which moves the deadline into the
// past) and Close. With d <= 0 it makes one non-blocking receive (the
// awake wait's probe). A wait ended by the deadline or an Interrupt
// costs one allocation (the net package's error value); one ended by a
// packet costs none.
//
// The receive that ended a wait, probe or park, is the next pass's: if
// it staged frames and drained the socket, the next RecvBurst hands
// them out and does not receive (one receive per packet's trip from the
// socket to its handler, not two); if it filled its window, RecvBurst
// tops up as after any receive.
//
// No wake-up is lost: Wait sets its deadline before it reads the
// Interrupt flag, and Interrupt sets the flag before it reads whether a
// Wait is in progress, so an Interrupt either is seen by that read or
// moves the deadline after Wait set it. Every Wait sets its deadline
// first because a deadline left in the past fails the read before it
// tries the socket (the non-blocking receives of RecvBurst go through
// RawConn.Control, which has no deadline). RawConn.Read holds the
// socket's read lock while parked: nothing else may block in a read on
// this socket, which is why the SetWake goroutine and Wait exclude each
// other.
func (u *UDP) Wait(d time.Duration) bool {
	if u.rxHead < len(u.rx) {
		return true
	}
	if d <= 0 {
		u.rxDrained = u.receive(SocketBurst, false) && len(u.rx) > 0
		return len(u.rx) > 0 || u.intr.Swap(false)
	}
	if u.closed.Load() {
		time.Sleep(d) // nothing arrives any more: wait as a timer would
		return u.intr.Swap(false)
	}
	u.waiting.Store(true)
	_ = u.conn.SetReadDeadline(time.Now().Add(d)) // fails only once closed, and the read then fails too
	if u.intr.Swap(false) {
		u.waiting.Store(false)
		return true
	}
	u.rxDrained = u.receive(SocketBurst, true) && len(u.rx) > 0
	u.waiting.Store(false)
	return len(u.rx) > 0 || u.intr.Swap(false)
}

// Interrupt implements Waiter: it ends the Wait in progress, or makes
// the next one return at once. From any goroutine. Only the Interrupt
// that raises the flag looks for a parked Wait; while the owner is busy
// that is all it costs.
func (u *UDP) Interrupt() {
	if !u.intr.Swap(true) && u.waiting.Load() {
		_ = u.conn.SetReadDeadline(aLongTimeAgo) // fails only once closed, which ends the Wait too
	}
}

// SetWake implements Transport for an owner that never calls Wait (a
// test, or a benchmark layer driving a bare UDP). The first non-nil fn
// starts one goroutine that waits for the socket to become readable
// without receiving and then calls the registered fn; it exits on
// Close. fn runs on every arrival the netpoller reports, not only on the
// first into an empty socket. An Rpc sleeps in Wait instead and never
// starts it.
func (u *UDP) SetWake(fn func()) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.wake = fn
	if fn != nil && u.wakeDone == nil && !u.closed.Load() {
		u.wakeDone = make(chan struct{})
		go u.wakeLoop()
	}
}

// wakeLoop is the SetWake goroutine. Its read closure parks it until
// the netpoller reports the socket readable, and receives nothing: the
// datagrams stay queued for the owner's RecvBurst. The closure's first
// call looks at the socket (a peek) rather than asking to park at once:
// each read clears the readiness the netpoller last reported, so a
// datagram that arrived since the last fn would otherwise wake no one.
// While the owner has not yet drained the socket fn therefore runs
// again, after a yield.
func (u *UDP) wakeLoop() {
	defer close(u.wakeDone)
	polled := false
	ready := func(fd uintptr) bool {
		if polled {
			return true
		}
		polled = true
		return readable(fd)
	}
	for {
		polled = false
		if u.rc.Read(ready) != nil {
			return // closed
		}
		u.mu.Lock()
		fn := u.wake
		u.mu.Unlock()
		if fn != nil {
			fn()
		}
		runtime.Gosched()
	}
}

// Close implements Transport. It is idempotent: closing an
// already-closed transport is a no-op returning the first result. A
// Wait in progress returns; the SetWake goroutine, if one was started,
// has exited when Close returns. Frames left over from the last receive
// are released by the owner's next RecvBurst.
func (u *UDP) Close() error {
	u.closeOnce.Do(func() {
		u.mu.Lock()
		u.closed.Store(true)
		done := u.wakeDone
		u.mu.Unlock()
		u.closeErr = u.conn.Close()
		if done != nil {
			<-done
		}
	})
	return u.closeErr
}

// RxPoolStats reports zero counters: no pool backs the RX frames, which
// alias the receive windows. It stays for callers that still read it.
func (u *UDP) RxPoolStats() PoolStats { return PoolStats{} }

// perPacketEngine is the portable fallback: one syscall per datagram.
// It is compiled on every platform and is the default where the batched
// engine is not. Datagrams are read into consecutive wire-sized slices
// of the receive window, and their 4-byte prefix carries the source, so
// no sockaddr is needed.
type perPacketEngine struct {
	u      *UDP
	max    int                   // datagrams the receive in progress may take
	again  bool                  // the last read found the socket empty
	rxCtl  func(fd uintptr)      // preallocated: rc.Control closure
	rxWait func(fd uintptr) bool // preallocated: rc.Read closure
}

func newPerPacketEngine(u *UDP) *perPacketEngine {
	e := &perPacketEngine{u: u}
	// Built once: a func value per receive would be a heap allocation.
	e.rxCtl = func(fd uintptr) { e.read(fd) }
	e.rxWait = func(fd uintptr) bool {
		e.read(fd)
		return len(e.u.rx) > 0 || !e.again
	}
	return e
}

func (e *perPacketEngine) name() string { return "per-packet" }

func (e *perPacketEngine) sendBurst(frames []Frame) {
	for i := range frames {
		e.u.sendOne(e.u.peers[frames[i].Addr].ap, frames[i].Data)
	}
}

func (e *perPacketEngine) recv(max int) bool {
	e.max = max
	_ = e.u.rc.Control(e.rxCtl) // fails only once the socket is closed
	return e.again
}

func (e *perPacketEngine) wait() bool {
	e.max = SocketBurst
	_ = e.u.rc.Read(e.rxWait)
	return e.again
}

// read makes non-blocking reads until the socket is empty (again), a
// read fails, e.max frames are staged, or the leftover or the window is
// full. Frame k of the receive is read into the window's k-th
// wire-sized slice (the leftover was empty when it began), and its
// payload aliases it past the prefix: no per-packet copy.
func (e *perPacketEngine) read(fd uintptr) {
	u := e.u
	win, wire := u.rxWin[u.rxCur], udpHdrLen+u.mtu
	e.again = false
	for lim := min(e.max, cap(u.rx), len(win)/wire); len(u.rx) < lim; {
		buf := win[len(u.rx)*wire:][:wire]
		n, err := readNB(fd, buf)
		if err != nil {
			e.again = err == syscall.EAGAIN
			return
		}
		u.Syscalls.Add(1)
		if n < udpHdrLen {
			continue
		}
		u.stage(buf[:n], 0)
	}
}

var _ Transport = (*UDP)(nil)
