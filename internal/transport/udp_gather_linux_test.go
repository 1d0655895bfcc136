//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"fmt"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// recvData drains n frames from u and returns copies of their payloads
// in arrival order.
func recvData(t *testing.T, u *UDP, n int) [][]byte {
	t.Helper()
	got := make([]Frame, 32)
	var out [][]byte
	for deadline := time.Now().Add(5 * time.Second); len(out) < n && time.Now().Before(deadline); {
		k := u.RecvBurst(got)
		for i := 0; i < k; i++ {
			out = append(out, append([]byte{}, got[i].Data...))
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if len(out) != n {
		t.Fatalf("received %d frames at %v, want %d", len(out), u.LocalAddr(), n)
	}
	return out
}

// TestUDPSendBurstGathers sends one mixed burst through the arena: two
// peers, frames of 0, 16, 48 and 1472 bytes to each, and then a run of
// 64 full-size frames to one of them, which splits at gsoMaxBytes and
// fills the arena past its end. Every message the kernel is handed is
// one iovec, and every frame arrives byte for byte, in its peer's
// order.
func TestUDPSendBurstGathers(t *testing.T) {
	for _, newUDP := range []func(Addr, string) (*UDP, error){NewUDP, NewUDPMmsg} {
		a, b := newUDPPairOn(t, newUDP)
		eng := a.eng.(*batchEngine)
		t.Run(eng.name(), func(t *testing.T) {
			c, err := newUDP(Addr{2, 0}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := a.AddPeer(c.LocalAddr(), c.BoundAddr().String()); err != nil {
				t.Fatal(err)
			}
			var burst []Frame
			want := map[Addr][][]byte{}
			add := func(to Addr, size int) {
				p := make([]byte, size)
				for j := range p {
					p[j] = byte(len(burst)*7 + j)
				}
				burst = append(burst, Frame{Data: p, Addr: to})
				want[to] = append(want[to], p)
			}
			for _, size := range []int{0, 16, 48, a.MTU()} {
				add(b.LocalAddr(), size)
				add(c.LocalAddr(), size)
			}
			for i := 0; i < 64; i++ {
				add(b.LocalAddr(), a.MTU())
			}

			msgs, maxSegs := 0, 0
			send := eng.txFn
			eng.txFn = func(fd uintptr) bool {
				for j := eng.txLo; j < eng.txHi; j++ {
					if n := eng.thdrs[j].hdr.Iovlen; n != 1 {
						t.Errorf("message %d of a sendmmsg has %d iovecs, want 1", j, n)
					}
					msgs++
					maxSegs = max(maxSegs, eng.tsegs[j])
				}
				return send(fd)
			}
			a.SendBurst(burst)
			eng.txFn = send
			if msgs == 0 {
				t.Fatal("no sendmmsg was made")
			}
			if full := gsoMaxBytes / (udpHdrLen + a.MTU()); eng.offload && maxSegs != full {
				t.Fatalf("longest supersegment has %d segments, want %d (gsoMaxBytes)", maxSegs, full)
			}
			for _, u := range []*UDP{b, c} {
				got := recvData(t, u, len(want[u.LocalAddr()]))
				for i, p := range want[u.LocalAddr()] {
					if !bytes.Equal(got[i], p) {
						t.Fatalf("frame %d at %v: %d bytes differ from the %d sent", i, u.LocalAddr(), len(got[i]), len(p))
					}
				}
			}
		})
	}
}

// TestUDPSendBurstAllocFree: gathering a full burst of full-size frames
// into the arena allocates nothing once the socket is warm.
func TestUDPSendBurstAllocFree(t *testing.T) {
	a, b := newUDPPair(t)
	burst := make([]Frame, SocketBurst)
	for i := range burst {
		burst[i] = Frame{Data: make([]byte, a.MTU()), Addr: b.LocalAddr()}
	}
	a.SendBurst(burst)
	if avg := testing.AllocsPerRun(20, func() { a.SendBurst(burst) }); avg != 0 {
		t.Fatalf("SendBurst of %d MTU frames: %.1f allocs, want 0", len(burst), avg)
	}
}

// BenchmarkGSOSend prices the engine's gather copy against what it
// replaced: one sendmmsg of one supersegment whose datagrams are iovec
// pairs [prefix, frame] ("pairs", issued here), against SendBurst of the
// same frames, which copies them into one buffer and hands the kernel
// one iovec. The receiver sets UDP_GRO and SO_TIMESTAMPNS and never
// reads. Each size is frames × frame bytes; one op is one send.
//
//	go test -run '^$' -bench BenchmarkGSOSend ./internal/transport
func BenchmarkGSOSend(b *testing.B) {
	for _, sz := range [][2]int{{64, 48}, {64, 128}, {64, 512}, {32, 1024}, {16, 1468}, {44, 1468}, {1, 48}} {
		n, size := sz[0], sz[1]
		b.Run(fmt.Sprintf("%dx%d/pairs", n, size), func(b *testing.B) { benchSendPairs(b, n, size) })
		b.Run(fmt.Sprintf("%dx%d/SendBurst", n, size), func(b *testing.B) {
			tx, rx := gsoPair(b)
			burst := make([]Frame, n)
			for i := range burst {
				burst[i] = Frame{Data: make([]byte, size), Addr: rx.LocalAddr()}
			}
			for b.Loop() {
				tx.SendBurst(burst)
			}
		})
	}
}

// benchSendPairs is BenchmarkGSOSend's "pairs" leg: n frames of size
// bytes, each an iovec pair, in one message (a supersegment when n > 1).
func benchSendPairs(b *testing.B, n, size int) {
	tx, rx := gsoPair(b)
	dst := tx.peers[rx.LocalAddr()]
	var prefix [udpHdrLen]byte
	tx.putHdr(prefix[:])
	iovs := make([]syscall.Iovec, 2*n)
	for i := 0; i < n; i++ {
		iovs[2*i].Base = &prefix[0]
		iovs[2*i].SetLen(udpHdrLen)
		iovs[2*i+1].Base = &make([]byte, size)[0]
		iovs[2*i+1].SetLen(size)
	}
	var name syscall.RawSockaddrInet6
	var msg mmsghdr
	msg.hdr.Name = (*byte)(unsafe.Pointer(&name))
	msg.hdr.Namelen = putSockaddr(&name, dst, true)
	msg.hdr.Iov = &iovs[0]
	msg.hdr.Iovlen = uint64(len(iovs))
	ctrl := make([]byte, gsoCtrlSpace)
	if n > 1 {
		ch := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
		ch.Level = solUDP
		ch.Type = udpSegment
		ch.SetLen(syscall.CmsgLen(2))
		*(*uint16)(unsafe.Pointer(&ctrl[syscall.CmsgLen(0)])) = uint16(udpHdrLen + size)
		msg.hdr.Control = &ctrl[0]
		msg.hdr.Controllen = uint64(syscall.CmsgSpace(2))
	}
	var errno syscall.Errno
	send := func(fd uintptr) bool {
		_, _, errno = syscall.Syscall6(sysSENDMMSG, fd, uintptr(unsafe.Pointer(&msg)), 1,
			syscall.MSG_DONTWAIT, 0, 0)
		return errno != syscall.EAGAIN
	}
	for b.Loop() {
		if err := tx.rc.Write(send); err != nil || (errno != 0 && errno != syscall.ENOBUFS) {
			b.Fatalf("sendmmsg: %v %v", err, errno)
		}
	}
}
