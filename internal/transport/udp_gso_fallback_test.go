//go:build linux && (amd64 || arm64)

package transport

// Tests that poke batchEngine internals (the path-MTU fallback, the
// refused-UDP_GRO seam); gated like the engine itself.

import (
	"fmt"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// TestUDPGsoSendSegmentedFallback exercises the path-MTU degradation
// path directly: a staged supersegment pushed through sendSegmented
// (what flush does when the kernel bounces a GSO send with EINVAL)
// must deliver every segment as its own plain datagram. The trigger
// itself — a link whose MTU rejects the segment size — cannot be
// reproduced over loopback (64 KiB MTU), which is exactly why the
// fallback exists for real networks.
func TestUDPGsoSendSegmentedFallback(t *testing.T) {
	a, b := gsoPair(t)
	eng, ok := a.eng.(*batchEngine)
	if !ok {
		t.Fatalf("engine is %T, want *batchEngine", a.eng)
	}
	const n = 5
	var frames []Frame
	for i := 0; i < n; i++ {
		p := make([]byte, 48)
		p[0] = byte(i)
		frames = append(frames, Frame{Data: p, Addr: b.LocalAddr()})
	}
	// Stage the burst in the arena exactly as sendBurst does, one
	// message of n datagrams, but call the per-segment fallback instead
	// of flushing the supersegment.
	const wire = udpHdrLen + 48
	for i := range frames {
		copy(eng.tbuf[i*wire:], eng.prefix[:])
		copy(eng.tbuf[i*wire+udpHdrLen:], frames[i].Data)
	}
	h := &eng.thdrs[0]
	eng.tiovs[0].Base = &eng.tbuf[0]
	eng.tiovs[0].SetLen(n * wire)
	h.hdr.Iov = &eng.tiovs[0]
	h.hdr.Iovlen = 1
	h.hdr.Name = (*byte)(unsafe.Pointer(&eng.tnames[0]))
	h.hdr.Namelen = putSockaddr(&eng.tnames[0], a.peers[b.LocalAddr()], eng.is4)
	eng.tsegs[0] = n
	eng.tsegSize[0] = wire
	sys0 := a.Syscalls.Load()
	eng.sendSegmented(0)
	if got := a.Syscalls.Load() - sys0; got != n {
		t.Fatalf("sendSegmented issued %d syscalls for %d segments, want %d", got, n, n)
	}
	got := make([]Frame, n)
	seen := map[byte]bool{}
	deadline := time.Now().Add(2 * time.Second)
	for len(seen) < n && time.Now().Before(deadline) {
		k := b.RecvBurst(got)
		for i := 0; i < k; i++ {
			if ln := len(got[i].Data); ln != 48 {
				t.Fatalf("segment arrived with %d bytes, want 48", ln)
			}
			seen[got[i].Data[0]] = true
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if len(seen) != n {
		t.Fatalf("received %d of %d fallback segments", len(seen), n)
	}
}

// TestUDPGsoWireCapStopsCoalescing pins the learned MTU ceiling: once
// a socket's wireCap drops to a segment size (as flush does after the
// kernel bounces a supersegment of that size), frames at or above it
// are sent as plain singleton messages and never coalesce again,
// while smaller frames keep coalescing.
func TestUDPGsoWireCapStopsCoalescing(t *testing.T) {
	a, b := gsoPair(t)
	eng := a.eng.(*batchEngine)
	eng.wireCap = udpHdrLen + 100 // pretend a 100-byte-frame supersegment bounced

	mk := func(size, tag int) Frame {
		p := make([]byte, size)
		p[0] = byte(tag)
		return Frame{Data: p, Addr: b.LocalAddr()}
	}
	seg0, sys0 := a.GsoSegments.Load(), a.Syscalls.Load()
	a.SendBurst([]Frame{mk(100, 0), mk(100, 1), mk(100, 2)})
	if got := a.GsoSegments.Load() - seg0; got != 0 {
		t.Fatalf("capped-size frames still coalesced: %d gso segments", got)
	}
	if got := a.Syscalls.Load() - sys0; got != 1 {
		t.Fatalf("capped burst took %d syscalls, want 1 sendmmsg of singletons", got)
	}
	seg1 := a.GsoSegments.Load()
	a.SendBurst([]Frame{mk(64, 3), mk(64, 4), mk(64, 5)})
	if got := a.GsoSegments.Load() - seg1; got != 3 {
		t.Fatalf("under-cap frames did not coalesce: %d gso segments, want 3", got)
	}
	got := make([]Frame, 8)
	seen := map[byte]bool{}
	deadline := time.Now().Add(2 * time.Second)
	for len(seen) < 6 && time.Now().Before(deadline) {
		k := b.RecvBurst(got)
		for i := 0; i < k; i++ {
			seen[got[i].Data[0]] = true
			got[i].Release()
		}
		if k == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("received %d of 6 frames", len(seen))
	}
}

// TestUDPGroRefusedRunsWithoutOffload has the socket refuse UDP_GRO: the
// batched engine then runs with its offload capability off, reports
// itself as "mmsg" and still moves a burst in one sendmmsg, with no
// supersegment on either side.
func TestUDPGroRefusedRunsWithoutOffload(t *testing.T) {
	if !UDPGsoSupported() {
		t.Skip("kernel without UDP_SEGMENT/UDP_GRO: NewUDP never asks for offload")
	}
	accept := enableGRO
	enableGRO = func(int) error { return syscall.ENOPROTOOPT }
	a, b := newUDPPair(t)
	enableGRO = accept
	if a.Engine() != "mmsg" || b.Engine() != "mmsg" {
		t.Fatalf("engines = %q/%q with UDP_GRO refused, want mmsg/mmsg", a.Engine(), b.Engine())
	}
	const n = 8
	sys0 := a.Syscalls.Load()
	rcvd := sendRecvBurst(t, a, b, n)
	for i, data := range rcvd {
		if want := fmt.Sprintf("burst-%02d", i); string(data) != want {
			t.Fatalf("frame %d = %q, want %q", i, data, want)
		}
	}
	if got := a.Syscalls.Load() - sys0; got != 1 {
		t.Fatalf("SendBurst of %d frames took %d syscalls, want 1", n, got)
	}
	if tx, rx := a.GsoSegments.Load(), b.GroBatches.Load(); tx != 0 || rx != 0 {
		t.Fatalf("offload ran with UDP_GRO refused: %d gso segments, %d gro batches", tx, rx)
	}
}
