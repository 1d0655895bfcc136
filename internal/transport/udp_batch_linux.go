//go:build linux && (amd64 || arm64)

package transport

// The batched engine: one sendmmsg(2) per TX burst and one recvmmsg(2)
// per RX window, the socket-world analogue of the paper's one doorbell
// per burst (§4.2). Where the kernel and the socket accept them (the
// engine's one capability, offload), UDP_SEGMENT (Linux 4.18+) and
// UDP_GRO (5.0+) also take the per-datagram trip through the UDP/IP
// stack out of the burst: the engine then reports itself as "gso",
// without them as "mmsg". The syscalls are the same either way.
//
//   - TX: every datagram, prefix then frame, is copied into an arena
//     the engine owns, and every message is one iovec over its bytes:
//     the kernel charges per iovec, and a copy of a burst costs less
//     than a second iovec per datagram (EXPERIMENTS.md, "A syscall pays
//     per iovec"). With offload, consecutive frames for one peer with
//     one wire size extend a single message under a UDP_SEGMENT cmsg
//     carrying the segment size, and the kernel segments it after one
//     stack traversal; without, every frame is its own message of the
//     same sendmmsg. Runs are formed here, not by the caller: runOrder
//     first moves a frame back to the last run of its peer and size
//     where that reorders no message.
//   - RX: one non-blocking recvmmsg, made by the owner (RecvBurst, or
//     the read closure Wait parks with), fills the slots of one of the
//     transport's two receive windows (udpRxSlots × 64 KiB), one
//     datagram per slot. With UDP_GRO on, a run of equal-size datagrams
//     (a whole TX supersegment crossing loopback is never segmented at
//     all) arrives in one slot plus a cmsg segment size, and
//     splitRxSegs stages its segments as frames aliasing the slot. An
//     uncoalesced datagram (every datagram, with UDP_GRO off) is one
//     frame aliasing its slot. No receive copies, and a window is
//     re-posted whole: the next receive fills the other one.
//   - Every receive carries the kernel's receive time (SO_TIMESTAMPNS),
//     which every frame split from it takes as Frame.RxStamp: the core
//     subtracts the time a packet then spends queued in this host from
//     its RTT samples. It also carries the socket's cumulative drop
//     count once there is one (SO_RXQ_OVFL, UDP.Drops). Both ride in
//     the control data recvmmsg already returns, so they cost no
//     syscall.
//
// The kernel refuses a UDP_SEGMENT send whose segments would need IP
// fragmentation (full-size frames on a 1500-byte link; loopback's
// 64 KiB MTU takes them): a bounced supersegment goes out as one
// sendmsg per segment and its segment size becomes the socket's
// coalescing ceiling (wireCap).
//
// This would normally sit on golang.org/x/sys/unix; the build is
// hermetic, so the engine uses the stdlib syscall package, which lacks
// SYS_SENDMMSG on some arches (udp_sysnum_*.go carries the number).
// Hence the gate to linux/amd64 and linux/arm64; everywhere else the
// per-packet engine of udp.go takes over.

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// MmsgSupported reports whether the batched engine is compiled into
// this binary (Linux amd64/arm64). Whether it also offloads
// segmentation depends on the kernel: see UDPGsoSupported.
const MmsgSupported = true

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-message byte count. Trailing padding matches the kernel layout
// through Go's natural struct alignment on both supported arches.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
}

const (
	solUDP     = 17  // SOL_UDP (absent from the stdlib syscall package)
	udpSegment = 103 // UDP_SEGMENT: TX cmsg / sockopt, u16 segment size
	udpGRO     = 104 // UDP_GRO: sockopt to enable; RX cmsg, int segment size

	// gsoMaxSegs caps segments per supersegment (the kernel's
	// UDP_MAX_SEGMENTS is 64 on the oldest supported kernels), and
	// gsoMaxBytes keeps the supersegment under the 65507-byte IPv4 UDP
	// payload limit with margin.
	gsoMaxSegs  = 64
	gsoMaxBytes = 65000

	// gsoTxWindow bounds messages (supersegments) per sendmmsg chunk,
	// and the TX arena holds gsoTxFrames full-size datagrams; larger
	// bursts flush in chunks. A burst of SocketBurst, the core's over a
	// socket, is one chunk.
	gsoTxWindow = SocketBurst
	gsoTxFrames = SocketBurst

	// gsoCtrlSpace is the TX per-message control-buffer stride, 8-aligned
	// and large enough for one UDP_SEGMENT cmsg.
	gsoCtrlSpace = 32

	// rxCtrlSpace is the RX per-message control-buffer stride: room for
	// a UDP_GRO cmsg (CmsgSpace(4) = 24), an SCM_TIMESTAMPNS one
	// (CmsgSpace(16), a struct timespec, = 32) and an SO_RXQ_OVFL one
	// (CmsgSpace(4), a u32, = 24), which the kernel may write in any
	// order.
	rxCtrlSpace = 24 + 32 + 24
)

var (
	gsoProbeOnce sync.Once
	gsoProbeOK   bool
)

// UDPGsoSupported reports whether this kernel accepts the UDP_SEGMENT
// and UDP_GRO socket options (probed once on a throwaway socket and
// cached). It is the kernel's half of the batched engine's offload
// capability; the other half is the socket itself accepting UDP_GRO
// (see newBatchEngine).
func UDPGsoSupported() bool {
	gsoProbeOnce.Do(func() {
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			return
		}
		defer syscall.Close(fd)
		if syscall.SetsockoptInt(fd, solUDP, udpSegment, DefaultUDPMTU) != nil {
			return
		}
		if syscall.SetsockoptInt(fd, solUDP, udpGRO, 1) != nil {
			return
		}
		gsoProbeOK = true
	})
	return gsoProbeOK
}

// enableGRO turns UDP_GRO on for one socket. A variable so a test can
// have the socket refuse it.
var enableGRO = func(fd int) error { return syscall.SetsockoptInt(fd, solUDP, udpGRO, 1) }

type batchEngine struct {
	u   *UDP
	rc  syscall.RawConn
	is4 bool // AF_INET socket: sockaddrs must be sockaddr_in

	// offload is the engine's one capability: UDP_SEGMENT supersegments
	// on TX and UDP_GRO coalescing on RX. Decided once at construction.
	offload bool

	// TX state, the owner's (see UDP). tbuf is the arena every datagram
	// of a sendmmsg is gathered into, prefix (the 4-byte source
	// address) then frame; tiovs holds one iovec per message over it.
	thdrs    []mmsghdr
	tiovs    []syscall.Iovec
	tbuf     []byte
	tnames   []syscall.RawSockaddrInet6
	tctrl    []byte // gsoCtrlSpace bytes per message
	tsegs    []int  // segments per message (counter accounting)
	tsegSize []int  // wire bytes per segment of each message
	prefix   [udpHdrLen]byte
	order    []int // the burst's frame indices in send order (runOrder)
	txLo     int
	txHi     int
	txSent   int
	txErrno  syscall.Errno
	txFn     func(fd uintptr) bool // preallocated: rc.Write closure

	// wireCap is the learned ceiling on coalescing-eligible segment
	// sizes. The kernel refuses a UDP_SEGMENT send whose segments
	// would not fit the path MTU unfragmented (EINVAL) — loopback's
	// 64 KiB MTU always fits, a 1500-byte link does not fit full-size
	// frames — while the same datagrams sent plainly may IP-fragment
	// and deliver. When a supersegment bounces, flush degrades it to
	// per-segment sendmsg calls and lowers wireCap to its segment
	// size, so oversized runs never form again on this socket.
	wireCap int

	// Per-segment fallback state (see sendSegmented).
	segHdr   syscall.Msghdr
	segIov   syscall.Iovec
	segErrno syscall.Errno
	segFn    func(fd uintptr) bool // preallocated: rc.Write closure

	// RX state, the owner's (see UDP). riovs are the slots of the
	// window the last receive filled (see post). rxN and rxErrno are
	// the result of the last recvmmsg.
	rhdrs   []mmsghdr
	riovs   []syscall.Iovec
	rctrl   []byte
	rxN     int
	rxErrno syscall.Errno
	rxFn    func(fd uintptr) bool // preallocated: rc.Read closure (wait)
	rxCtl   func(fd uintptr)      // preallocated: rc.Control closure (recv)
}

// newBatchEngine returns the batched engine for u's socket. offload
// asks for UDP_SEGMENT/UDP_GRO; the engine has them only if the kernel
// (UDPGsoSupported) and this socket (UDP_GRO accepted) agree.
func newBatchEngine(u *UDP, offload bool) udpEngine {
	rc := u.rc
	offload = offload && UDPGsoSupported()
	if offload {
		var soErr error
		err := rc.Control(func(fd uintptr) { soErr = enableGRO(int(fd)) })
		offload = err == nil && soErr == nil
	}
	la, _ := u.conn.LocalAddr().(*net.UDPAddr)
	e := &batchEngine{
		u:        u,
		rc:       rc,
		is4:      la != nil && la.IP.To4() != nil,
		offload:  offload,
		thdrs:    make([]mmsghdr, gsoTxWindow),
		tiovs:    make([]syscall.Iovec, gsoTxWindow),
		tbuf:     make([]byte, gsoTxFrames*(udpHdrLen+u.mtu)),
		tnames:   make([]syscall.RawSockaddrInet6, gsoTxWindow),
		tctrl:    make([]byte, gsoCtrlSpace*gsoTxWindow),
		tsegs:    make([]int, gsoTxWindow),
		tsegSize: make([]int, gsoTxWindow),
		order:    make([]int, 0, gsoTxFrames),
		wireCap:  1 << 30, // no learned ceiling yet
		rhdrs:    make([]mmsghdr, udpRxSlots),
		riovs:    make([]syscall.Iovec, udpRxSlots),
		rctrl:    make([]byte, rxCtrlSpace*udpRxSlots),
	}
	var soErr error
	err := rc.Control(func(fd uintptr) {
		soErr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
		// Best effort: without it Drops stays 0.
		_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
	})
	u.stamped = err == nil && soErr == nil
	u.putHdr(e.prefix[:])
	for i := range e.rhdrs {
		e.arm(i)
	}
	// The syscall closures are built once: rc.Read/rc.Write/rc.Control
	// take a func value, and one per burst would be a heap allocation
	// per syscall. MSG_DONTWAIT keeps the calls non-blocking; the
	// netpoller provides the blocking (false from the closure parks the
	// goroutine until the socket is ready again). Syscall6, not
	// RawSyscall6: the enter/exitsyscall bracket is the scheduler's
	// preemption point, so the peer's loop gets the CPU right after a
	// flush (without it a GOMAXPROCS=1 loopback measured 25x slower,
	// every exchange stalled into a timer park).
	e.txFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&e.thdrs[e.txLo])), uintptr(e.txHi-e.txLo),
			syscall.MSG_DONTWAIT, 0, 0)
		e.txSent, e.txErrno = int(n), errno
		return errno != syscall.EAGAIN
	}
	e.rxFn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&e.rhdrs[0])), uintptr(len(e.rhdrs)),
			syscall.MSG_DONTWAIT, 0, 0)
		e.rxN, e.rxErrno = int(n), errno
		return errno != syscall.EAGAIN
	}
	e.rxCtl = func(fd uintptr) { e.rxFn(fd) }
	e.segFn = func(fd uintptr) bool {
		_, _, errno := syscall.Syscall6(syscall.SYS_SENDMSG, fd,
			uintptr(unsafe.Pointer(&e.segHdr)), syscall.MSG_DONTWAIT, 0, 0, 0)
		e.segErrno = errno
		return errno != syscall.EAGAIN
	}
	return e
}

func (e *batchEngine) name() string {
	if e.offload {
		return "gso"
	}
	return "mmsg"
}

// runOrder returns the indices of frames in the order the offloading
// engine sends them, in order's storage. Each frame in turn joins the
// last run of its own peer (Frame.Addr) and wire size, passing the
// frames queued after that run, when two rules allow it:
//
//   - a frame may pass any frame to another peer;
//   - to its own peer it may pass only strictly smaller frames.
//
// Otherwise it goes last. The packets of one eRPC message never grow
// (full packets, then a shorter last one), so no message's packets are
// reordered: the short last packet of one message does not join the
// equal-size packet of another past a full packet of its own. A reply
// may pass a smaller control packet to the same peer, such as a
// response overtaking its slot's credit return, which the transport's
// contract allows and the protocol treats as a stale packet.
func runOrder(order []int, frames []Frame) []int {
	order = order[:0]
	for i := range frames {
		at := len(order)
		for j := len(order) - 1; j >= 0; j-- {
			k := order[j]
			if frames[k].Addr != frames[i].Addr || len(frames[k].Data) < len(frames[i].Data) {
				continue
			}
			if len(frames[k].Data) == len(frames[i].Data) {
				at = j + 1
			}
			break
		}
		order = append(order, i)
		copy(order[at+1:], order[at:])
		order[at] = i
	}
	return order
}

// sendBurst transmits the burst as one sendmmsg per
// gsoTxWindow messages or full arena (one, for the core's bursts of
// SocketBurst). Each datagram, prefix then frame, is copied back to
// back into the arena, and each message is one iovec over its bytes.
// With offload, the frames go in runOrder, and consecutive frames with
// the same destination and the same wire size extend one message under
// a UDP_SEGMENT cmsg (GSO requires every segment but the last to be
// exactly gso_size, which equal-size runs satisfy); a frame with a new
// destination or size, and without offload every frame, opens a new
// message. A peer is resolved once per run of frames to it, which
// runOrder makes long under offload. Unknown peers, oversized frames and
// address-family mismatches are dropped, like the per-packet engine.
func (e *batchEngine) sendBurst(frames []Frame) {
	m := 0    // messages filled
	off := 0  // arena cursor
	run := -1 // message index of the open run (-1: none)
	var runDest, dst udpDest
	var dstAddr Addr // the peer dst was resolved for

	if e.offload {
		e.order = runOrder(e.order, frames)
	}
	for k := range frames {
		i := k
		if e.offload {
			i = e.order[k]
		}
		if k == 0 || frames[i].Addr != dstAddr {
			dstAddr = frames[i].Addr
			dst = e.u.peers[dstAddr]
		}
		ap := dst.ap
		data := frames[i].Data
		if !ap.IsValid() || len(data) > e.u.mtu {
			continue
		}
		if e.is4 && !ap.Addr().Is4() && !ap.Addr().Is4In6() {
			continue
		}
		wire := udpHdrLen + len(data)
		fits := off+wire <= len(e.tbuf)
		extend := e.offload && run >= 0 && fits && dst == runDest && wire == e.tsegSize[run] &&
			wire < e.wireCap && e.tsegs[run] < gsoMaxSegs && int(e.tiovs[run].Len)+wire <= gsoMaxBytes
		if !extend && (m == len(e.thdrs) || !fits) {
			e.flush(m)
			m, off, run = 0, 0, -1
		}
		copy(e.tbuf[off:], e.prefix[:])
		copy(e.tbuf[off+udpHdrLen:], data)

		if extend {
			// The open supersegment's datagrams lie back to back in
			// the arena: its one iovec grows over this one.
			e.tiovs[run].SetLen(int(e.tiovs[run].Len) + wire)
			e.tsegs[run]++
			if e.tsegs[run] == 2 {
				// Second segment: this message is now a supersegment;
				// attach the UDP_SEGMENT cmsg with the run's stride.
				cb := e.tctrl[run*gsoCtrlSpace:]
				ch := (*syscall.Cmsghdr)(unsafe.Pointer(&cb[0]))
				ch.Level = solUDP
				ch.Type = udpSegment
				ch.SetLen(syscall.CmsgLen(2))
				*(*uint16)(unsafe.Pointer(&cb[syscall.CmsgLen(0)])) = uint16(wire)
				h := &e.thdrs[run].hdr
				h.Control = &cb[0]
				h.Controllen = uint64(syscall.CmsgSpace(2))
			}
		} else {
			h := &e.thdrs[m]
			e.tiovs[m].Base = &e.tbuf[off]
			e.tiovs[m].SetLen(wire)
			h.hdr.Iov = &e.tiovs[m]
			h.hdr.Iovlen = 1
			h.hdr.Name = (*byte)(unsafe.Pointer(&e.tnames[m]))
			h.hdr.Namelen = putSockaddr(&e.tnames[m], dst, e.is4)
			h.hdr.Control = nil
			h.hdr.Controllen = 0
			h.hdr.Flags = 0
			h.msgLen = 0
			e.tsegs[m] = 1
			e.tsegSize[m] = wire
			run, runDest = m, dst
			m++
		}
		off += wire
	}
	if m > 0 {
		e.flush(m)
	}
}

// flush hands thdrs[:n] to the kernel, retrying the unsent tail after
// short writes. Transient whole-call failures (EINTR, exhausted
// buffers) are retried so the engine is no lossier than the per-packet
// path; anything else is a per-datagram error (e.g. ECONNREFUSED
// surfaced by a previous send's ICMP error) and skips one message,
// best-effort like the transport's contract. Each successful sendmmsg
// is one syscall, a call that moved more than one datagram is an mmsg
// batch, and every multi-segment message adds its segment count to
// GsoSegments.
func (e *batchEngine) flush(n int) {
	retries := 0
	for lo := 0; lo < n; {
		e.txLo, e.txHi = lo, n
		if err := e.rc.Write(e.txFn); err != nil {
			return // socket closed
		}
		if e.txErrno != 0 || e.txSent <= 0 {
			switch e.txErrno {
			case syscall.EINTR:
				continue
			case syscall.ENOBUFS, syscall.ENOMEM:
				if retries < 3 {
					retries++
					runtime.Gosched() // let the stack drain
					continue
				}
			case syscall.EINVAL, syscall.EMSGSIZE:
				// A supersegment the kernel cannot send as GSO —
				// typically segments too large for the path MTU (a
				// plain send of the same datagram would IP-fragment
				// instead). Degrade this message to per-segment
				// sendmsg calls and remember the ceiling so such runs
				// stop forming on this socket.
				if e.tsegs[lo] > 1 {
					if e.tsegSize[lo] < e.wireCap {
						e.wireCap = e.tsegSize[lo]
					}
					e.sendSegmented(lo)
					lo++
					retries = 0
					continue
				}
			}
			lo++
			retries = 0
			continue
		}
		retries = 0
		e.u.Syscalls.Add(1)
		moved := 0
		for j := lo; j < lo+e.txSent; j++ {
			moved += e.tsegs[j]
			if e.tsegs[j] > 1 {
				e.u.GsoSegments.Add(uint64(e.tsegs[j]))
			}
		}
		if moved > 1 {
			e.u.MmsgBatches.Add(1)
		}
		lo += e.txSent
	}
}

// sendSegmented transmits supersegment message m as one plain sendmsg
// per segment — the fallback when the kernel refuses the GSO send
// (see wireCap). The message's one iovec covers equal-size datagrams
// back to back in the arena, so each segment is a fixed-stride window
// into it; the sockaddr is shared. Per-segment errors are ignored like
// every other best-effort send.
func (e *batchEngine) sendSegmented(m int) {
	h := &e.thdrs[m].hdr
	stride := e.tsegSize[m]
	e.segHdr = syscall.Msghdr{Name: h.Name, Namelen: h.Namelen, Iov: &e.segIov, Iovlen: 1}
	for s := 0; s < e.tsegs[m]; s++ {
		e.segIov.Base = (*byte)(unsafe.Add(unsafe.Pointer(e.tiovs[m].Base), s*stride))
		e.segIov.SetLen(stride)
		if err := e.rc.Write(e.segFn); err != nil {
			return // socket closed
		}
		if e.segErrno == 0 {
			e.u.Syscalls.Add(1)
		}
	}
}

// parseRxCmsgs walks one received message's control data — the first
// Controllen bytes of its slot, as the kernel reported them — and
// returns the UDP_GRO segment stride (0: the datagram arrived
// uncoalesced), the SCM_TIMESTAMPNS receive time in Unix nanoseconds
// (0: none) and the socket's cumulative drop count from SO_RXQ_OVFL (0:
// none; the kernel omits it until it has dropped something). Headers
// may come in any order. The walk reads the bytes through
// bounds-checked slices, never past len(b): a header shorter than its
// own size, or whose Len runs past the buffer, ends it.
func parseRxCmsgs(b []byte) (stride int, stamp int64, drops uint32) {
	for len(b) >= syscall.SizeofCmsghdr {
		ln := binary.NativeEndian.Uint64(b[0:8])
		level := int32(binary.NativeEndian.Uint32(b[8:12]))
		typ := int32(binary.NativeEndian.Uint32(b[12:16]))
		if ln < syscall.SizeofCmsghdr || ln > uint64(len(b)) {
			return stride, stamp, drops
		}
		data := b[syscall.SizeofCmsghdr:ln]
		switch {
		case level == solUDP && typ == udpGRO && len(data) >= 4:
			stride = int(int32(binary.NativeEndian.Uint32(data)))
		case level == syscall.SOL_SOCKET && typ == syscall.SCM_TIMESTAMPNS && len(data) >= 16:
			sec := int64(binary.NativeEndian.Uint64(data[0:8]))
			nsec := int64(binary.NativeEndian.Uint64(data[8:16]))
			stamp = sec*1e9 + nsec
		case level == syscall.SOL_SOCKET && typ == syscall.SO_RXQ_OVFL && len(data) >= 4:
			drops = binary.NativeEndian.Uint32(data)
		}
		next := (ln + 7) &^ 7 // CMSG_ALIGN on a 64-bit kernel
		if next >= uint64(len(b)) {
			return stride, stamp, drops
		}
		b = b[next:]
	}
	return stride, stamp, drops
}

// post points the slots at the window the next receive fills
// (UDP.rxCur), unless they point there already.
func (e *batchEngine) post() {
	win := e.u.rxWin[e.u.rxCur]
	if e.riovs[0].Base == &win[0] {
		return
	}
	for i := range e.riovs {
		e.riovs[i].Base = &win[i*udpRxSlotCap]
		e.riovs[i].SetLen(udpRxSlotCap)
	}
}

// arm readies RX slot i for the next recvmmsg: the header fields the
// kernel wrote reset.
func (e *batchEngine) arm(i int) {
	h := &e.rhdrs[i]
	h.hdr.Iov = &e.riovs[i]
	h.hdr.Iovlen = 1
	h.hdr.Name = nil
	h.hdr.Namelen = 0
	h.hdr.Control = &e.rctrl[i*rxCtrlSpace]
	h.hdr.Controllen = rxCtrlSpace
	h.hdr.Flags = 0
	h.msgLen = 0
}

// recv is one non-blocking recvmmsg over the window, split into the
// leftover. max does not bound it: the leftover holds a whole window.
func (e *batchEngine) recv(int) bool {
	e.post()
	e.rxN = 0
	if e.u.rc.Control(e.rxCtl) != nil {
		return false
	}
	return e.split()
}

// wait parks in the netpoller until a recvmmsg gets something (split
// into the leftover), the read deadline passes or the socket closes.
func (e *batchEngine) wait() bool {
	e.post()
	e.rxN = 0 // a read that fails before calling rxFn received nothing
	_ = e.u.rc.Read(e.rxFn)
	return e.split()
}

// split turns the messages the last recvmmsg filled into frames on the
// leftover, each aliasing its slot of the window, split at the
// message's cmsg stride and stamped with its kernel receive time
// (parseRxCmsgs, splitRxSegs), and re-arms their slots. It reports
// whether the recvmmsg drained the socket: it found it empty, or it
// returned fewer messages than the window has slots.
func (e *batchEngine) split() (drained bool) {
	n := e.rxN
	e.rxN = 0
	if e.rxErrno != 0 || n <= 0 {
		return e.rxErrno == syscall.EAGAIN // empty socket, or a transient error (e.g. a drained ICMP error)
	}
	u := e.u
	u.Syscalls.Add(1)
	win := u.rxWin[u.rxCur]
	datagrams := 0
	var drops uint32
	for i := 0; i < n; i++ {
		ctrl := e.rctrl[i*rxCtrlSpace:][:min(e.rhdrs[i].hdr.Controllen, rxCtrlSpace)]
		stride, stamp, d := parseRxCmsgs(ctrl)
		drops = max(drops, d)
		slot := win[i*udpRxSlotCap : (i+1)*udpRxSlotCap]
		nseg := u.splitRxSegs(slot, int(e.rhdrs[i].msgLen), stride, stamp)
		datagrams += nseg
		if nseg > 1 {
			u.GroBatches.Add(1)
		}
		e.arm(i)
	}
	if drops != 0 {
		u.Drops.Store(uint64(drops))
	}
	if datagrams > 1 {
		u.MmsgBatches.Add(1)
	}
	return n < len(e.rhdrs)
}

// putSockaddr fills the sockaddr storage for one destination and
// returns its length: sockaddr_in on an AF_INET socket (is4),
// sockaddr_in6 (with IPv4 destinations v4-mapped, and the zone
// resolved by AddPeer as the numeric scope for link-local peers) on a
// dual-stack socket.
func putSockaddr(sa6 *syscall.RawSockaddrInet6, d udpDest, is4 bool) uint32 {
	ap := d.ap
	if is4 {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa6))
		sa.Family = syscall.AF_INET
		putSockPort((*[2]byte)(unsafe.Pointer(&sa.Port)), ap.Port())
		sa.Addr = ap.Addr().Unmap().As4()
		return syscall.SizeofSockaddrInet4
	}
	sa6.Family = syscall.AF_INET6
	putSockPort((*[2]byte)(unsafe.Pointer(&sa6.Port)), ap.Port())
	sa6.Addr = ap.Addr().As16() // IPv4 becomes the v4-mapped form
	sa6.Scope_id = d.scope
	return syscall.SizeofSockaddrInet6
}

// putSockPort stores a port in network byte order regardless of host
// endianness (the sockaddr port field is wire-format bytes).
func putSockPort(b *[2]byte, p uint16) { b[0], b[1] = byte(p>>8), byte(p) }
