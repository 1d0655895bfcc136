package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
)

// captureTransport records every SendBurst's frames (sharing the
// caller's Data slices, like a real transport mid-call) so tests can
// inspect what the TX batch handed down and with which backing arrays.
type captureTransport struct {
	bursts  [][]transport.Frame
	inBurst []bool // parallel: Data aliased the caller's buffer at call time
}

func (c *captureTransport) MTU() int                  { return 1472 }
func (c *captureTransport) LocalAddr() transport.Addr { return transport.Addr{Node: 1} }
func (c *captureTransport) SendBurst(frames []transport.Frame) {
	burst := make([]transport.Frame, len(frames))
	copy(burst, frames)
	c.bursts = append(c.bursts, burst)
}
func (c *captureTransport) RecvBurst(frames []transport.Frame) int { return 0 }
func (c *captureTransport) SetWake(func())                         {}
func (c *captureTransport) Close() error                           { return nil }

func newZCRpc(t *testing.T, tr transport.Transport, cfg Config) *Rpc {
	t.Helper()
	cfg.Transport = tr
	cfg.Clock = sim.NewWallClock()
	return NewRpc(echoNexus(), cfg)
}

// TestZeroCopyTxAliasesMsgbuf pins the zero-copy TX contract (paper
// Appendix C): in real-transport mode a single-packet request's frame
// reaches SendBurst aliasing the request msgbuf's own backing array —
// no copy into a pooled wire buffer — while the TX batch holds a
// transmission reference that is released once the batch is flushed.
func TestZeroCopyTxAliasesMsgbuf(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{})
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	req, resp := r.Alloc(32), r.Alloc(32)
	for i := range req.Data() {
		req.Data()[i] = byte(i)
	}
	r.EnqueueRequest(s, echoType, req, resp, func(error) {})
	if req.TXRefs() != 1 {
		t.Fatalf("queued packet-0 frame holds %d TX refs, want 1", req.TXRefs())
	}
	r.RunEventLoopOnce() // flushes the TX batch
	if req.TXRefs() != 0 {
		t.Fatalf("TX refs not released at flush: %d outstanding", req.TXRefs())
	}
	if r.Stats.ZeroCopyTx != 1 {
		t.Fatalf("Stats.ZeroCopyTx = %d, want 1", r.Stats.ZeroCopyTx)
	}
	var sent []transport.Frame
	for _, b := range ct.bursts {
		sent = append(sent, b...)
	}
	if len(sent) != 1 {
		t.Fatalf("transport saw %d frames, want 1", len(sent))
	}
	// The captured frame must share memory with the msgbuf: Frame(0)
	// aliases the backing array, so identical base pointers prove no
	// copy happened.
	alias := req.Frame(0, nil)
	if &sent[0].Data[0] != &alias[0] {
		t.Fatalf("packet-0 frame was copied: sent base %p, msgbuf base %p", &sent[0].Data[0], &alias[0])
	}
}

// TestZeroCopyTxTeardownReleasesRefs checks the failure path: failing
// a session with zero-copy frames still queued must flush the batch
// (releasing the msgbuf references) before continuations run, so the
// application can Free its buffers from the continuation — the
// Appendix B discipline of flushing the DMA queue on failure.
func TestZeroCopyTxTeardownReleasesRefs(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{})
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	req, resp := r.Alloc(8), r.Alloc(8)
	freed := false
	r.EnqueueRequest(s, echoType, req, resp, func(err error) {
		if err == nil {
			t.Error("teardown completed without error")
		}
		// Must not panic: no outstanding TX references at this point.
		r.Free(req)
		r.Free(resp)
		freed = true
	})
	if req.TXRefs() != 1 {
		t.Fatalf("queued packet-0 frame holds %d TX refs, want 1", req.TXRefs())
	}
	r.DestroySession(s)
	if !freed {
		t.Fatal("continuation did not run on DestroySession")
	}
}

// TestTXFlushesAtBurstSize checks the mid-iteration flush: the TX
// batch goes out as one SendBurst the moment it holds BurstSize frames,
// and a shorter remainder waits for the end-of-iteration flush.
func TestTXFlushesAtBurstSize(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{BurstSize: 2})
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		req, resp := r.Alloc(8), r.Alloc(8)
		r.EnqueueRequest(s, echoType, req, resp, func(error) {})
	}
	if len(ct.bursts) != 1 || len(ct.bursts[0]) != 2 {
		t.Fatalf("3 packets at BurstSize 2: %d SendBursts before the iteration ended, want one of 2 frames", len(ct.bursts))
	}
	r.flushTX()
	if len(ct.bursts) != 2 || len(ct.bursts[1]) != 1 {
		t.Fatalf("end-of-iteration flush: %d SendBursts, want a second one of 1 frame", len(ct.bursts))
	}
}

// TestGroupTXByPeer pins the per-peer coalescing order of the TX
// batch: a flush that interleaves destinations is stable-partitioned
// so each peer's frames are consecutive (what the gso engine coalesces
// into supersegments) while per-peer order is preserved.
func TestGroupTXByPeer(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{BurstSize: 16})
	a := transport.Addr{Node: 10}
	b := transport.Addr{Node: 20}
	c := transport.Addr{Node: 30}
	for _, f := range []struct {
		addr transport.Addr
		tag  byte
	}{{a, 0}, {b, 0}, {a, 1}, {c, 0}, {b, 1}, {a, 2}} {
		r.rawSend(f.addr, []byte{byte(f.addr.Node), f.tag})
	}
	r.flushTX()
	if len(ct.bursts) != 1 {
		t.Fatalf("%d bursts, want 1", len(ct.bursts))
	}
	var got [][2]byte
	for _, f := range ct.bursts[0] {
		got = append(got, [2]byte{f.Data[0], f.Data[1]})
	}
	want := [][2]byte{{10, 0}, {10, 1}, {10, 2}, {20, 0}, {20, 1}, {30, 0}}
	if len(got) != len(want) {
		t.Fatalf("flushed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d = %v, want %v (full order %v)", i, got[i], want[i], got)
		}
	}
}
