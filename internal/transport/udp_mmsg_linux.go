//go:build linux && (amd64 || arm64)

package transport

// The batched syscall engine: sendmmsg(2)/recvmmsg(2) move a whole
// RX/TX burst across the kernel boundary in one crossing, the
// socket-world analogue of the paper's one-DMA-queue-flush-per-burst
// discipline (§4.2). The engine owns preallocated mmsghdr/iovec/
// sockaddr arrays sized to the burst, so steady-state operation
// performs no heap allocation:
//
//   - TX: each message is a two-entry iovec — the shared 4-byte
//     source prefix plus the caller's frame — gathered by the kernel,
//     so frames are never copied into a transport scratch buffer.
//   - RX: the reader goroutine posts a window of pooled wire buffers
//     and recvmmsg fills them in place; payloads alias the buffers
//     past the prefix (no per-packet copy), and Release re-posts them.
//
// This would normally sit on golang.org/x/sys/unix; the build
// environment is hermetic (no module downloads), so the engine uses
// the stdlib syscall package directly. The stdlib lacks SYS_SENDMMSG
// on some arches — udp_sysnum_*.go carries the number — which is why
// the engine is gated to linux/amd64 and linux/arm64; everywhere else
// the portable per-packet engine takes over.

import (
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// MmsgSupported reports whether the batched sendmmsg/recvmmsg engine
// is compiled into this binary (Linux amd64/arm64).
const MmsgSupported = true

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-message byte count. Trailing padding matches the kernel layout
// through Go's natural struct alignment on both supported arches.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
}

const (
	// mmsgTxWindow is the TX array size: bursts larger than this are
	// flushed in chunks (the core's default burst is 16).
	mmsgTxWindow = 64
	// mmsgRxWindow is how many RX buffers are posted per recvmmsg —
	// the depth of the software RQ refill, sized to catch a full
	// default burst plus slack.
	mmsgRxWindow = 32
)

type mmsgEngine struct {
	u   *UDP
	rc  syscall.RawConn
	is4 bool // AF_INET socket: sockaddrs must be sockaddr_in

	// TX state, guarded by u.txMu. prefix is the 4-byte source
	// address shared by every message's first iovec entry.
	thdrs   []mmsghdr
	tiovs   []syscall.Iovec // 2 per message: prefix + frame
	tnames  []syscall.RawSockaddrInet6
	prefix  [udpHdrLen]byte
	txLo    int // in-flight window into thdrs for txFn
	txHi    int
	txSent  int
	txErrno syscall.Errno
	txFn    func(fd uintptr) bool // preallocated: rc.Write closure

	// RX state, owned by the reader goroutine.
	rhdrs   []mmsghdr
	riovs   []syscall.Iovec
	rbufs   [][]byte
	rxN     int
	rxErrno syscall.Errno
	rxFn    func(fd uintptr) bool // preallocated: rc.Read closure
}

// newDefaultEngine returns the mmsg engine, falling back to the
// portable per-packet engine if the raw connection is unavailable.
func newDefaultEngine(u *UDP) udpEngine {
	rc, err := u.conn.SyscallConn()
	if err != nil {
		return &perPacketEngine{u: u}
	}
	la, _ := u.conn.LocalAddr().(*net.UDPAddr)
	e := &mmsgEngine{
		u:      u,
		rc:     rc,
		is4:    la != nil && la.IP.To4() != nil,
		thdrs:  make([]mmsghdr, mmsgTxWindow),
		tiovs:  make([]syscall.Iovec, 2*mmsgTxWindow),
		tnames: make([]syscall.RawSockaddrInet6, mmsgTxWindow),
		rhdrs:  make([]mmsghdr, mmsgRxWindow),
		riovs:  make([]syscall.Iovec, mmsgRxWindow),
		rbufs:  make([][]byte, mmsgRxWindow),
	}
	u.putHdr(e.prefix[:])
	// The syscall closures are built once: rc.Read/rc.Write take a
	// func value, and allocating it per burst would put one closure
	// per syscall on the heap — exactly what the zero-alloc datapath
	// forbids. MSG_DONTWAIT keeps the calls non-blocking; the
	// netpoller provides the blocking (false from the closure parks
	// the goroutine until the socket is ready again). Syscall6, not
	// RawSyscall6: the enter/exitsyscall bracket gives the scheduler
	// its preemption point, so the peer's reader goroutine gets the
	// CPU right after a flush — without it, low-core-count hosts
	// stall every exchange into a timer park (measured 25x slower on
	// GOMAXPROCS=1 loopback).
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
	return e
}

func (e *mmsgEngine) name() string { return "mmsg" }

// sendBurst transmits the resolved burst with one sendmmsg per
// mmsgTxWindow chunk (one, for any burst up to the window). Callers
// hold u.txMu. Unknown peers, oversized frames and address-family
// mismatches are dropped, like the per-packet path.
func (e *mmsgEngine) sendBurst(dsts []udpDest, frames []Frame) {
	n := 0
	for i := range frames {
		ap := dsts[i].ap
		data := frames[i].Data
		if !ap.IsValid() || len(data) > e.u.mtu {
			continue
		}
		if e.is4 && !ap.Addr().Is4() && !ap.Addr().Is4In6() {
			continue
		}
		if n == len(e.thdrs) {
			e.flush(n)
			n = 0
		}
		h := &e.thdrs[n]
		iv := e.tiovs[2*n : 2*n+2]
		iv[0].Base = &e.prefix[0]
		iv[0].SetLen(udpHdrLen)
		if len(data) > 0 {
			iv[1].Base = &data[0]
			iv[1].SetLen(len(data))
			h.hdr.Iovlen = 2
		} else {
			iv[1] = syscall.Iovec{}
			h.hdr.Iovlen = 1
		}
		h.hdr.Iov = &iv[0]
		h.hdr.Name = (*byte)(unsafe.Pointer(&e.tnames[n]))
		h.hdr.Namelen = e.putName(&e.tnames[n], dsts[i])
		h.hdr.Control = nil
		h.hdr.Controllen = 0
		h.hdr.Flags = 0
		h.msgLen = 0
		n++
	}
	if n > 0 {
		e.flush(n)
	}
}

// flush hands thdrs[:n] to the kernel, retrying the unsent tail after
// short writes. Transient whole-call failures (EINTR, exhausted
// buffers) are retried so the engine is no lossier than the
// per-packet path; anything else is treated as a per-datagram error
// (e.g. ECONNREFUSED surfaced by a previous send's ICMP error) and
// skips one message — best-effort, like the unreliable transport
// contract.
func (e *mmsgEngine) flush(n int) {
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
			}
			lo++
			retries = 0
			continue
		}
		retries = 0
		e.u.Syscalls.Add(1)
		if e.txSent > 1 {
			e.u.MmsgBatches.Add(1)
		}
		lo += e.txSent
	}
}

// putName fills the sockaddr storage for one destination and returns
// its length (see putSockaddr).
func (e *mmsgEngine) putName(sa6 *syscall.RawSockaddrInet6, d udpDest) uint32 {
	return putSockaddr(sa6, d, e.is4)
}

// putSockaddr fills the sockaddr storage for one destination and
// returns its length: sockaddr_in on an AF_INET socket (is4),
// sockaddr_in6 (with IPv4 destinations v4-mapped, and the zone
// resolved by AddPeer as the numeric scope for link-local peers) on a
// dual-stack socket. Shared by the mmsg and gso engines.
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

// readLoop is the reader-goroutine body: post a window of pooled wire
// buffers, pull as many datagrams as one recvmmsg yields, enqueue
// their payloads in place, repeat. Buffers consumed by the ring are
// replaced from the pool; unconsumed slots keep their buffer.
//
//erpc:owner
func (e *mmsgEngine) readLoop() {
	u := e.u
	for {
		for i := range e.rbufs {
			if e.rbufs[i] == nil {
				b := u.rxPool.Get()
				b = b[:cap(b)]
				e.rbufs[i] = b
				e.riovs[i].Base = &b[0]
				e.riovs[i].SetLen(len(b))
			}
			h := &e.rhdrs[i]
			h.hdr.Iov = &e.riovs[i]
			h.hdr.Iovlen = 1
			h.hdr.Name = nil
			h.hdr.Namelen = 0
			h.hdr.Control = nil
			h.hdr.Controllen = 0
			h.hdr.Flags = 0
			h.msgLen = 0
		}
		if err := e.rc.Read(e.rxFn); err != nil {
			return // socket closed
		}
		if e.rxErrno != 0 {
			if u.closed() {
				return
			}
			continue // transient (e.g. drained ICMP error); retry
		}
		n := e.rxN
		if n <= 0 {
			continue
		}
		u.Syscalls.Add(1)
		if n > 1 {
			u.MmsgBatches.Add(1)
		}
		for i := 0; i < n; i++ {
			ln := int(e.rhdrs[i].msgLen)
			buf := e.rbufs[i][:ln]
			e.rbufs[i] = nil
			if ln < udpHdrLen {
				u.rxPool.Put(buf)
				continue
			}
			u.enqueue(buf, buf[udpHdrLen:], parseHdr(buf))
		}
	}
}
