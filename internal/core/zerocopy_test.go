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

// TestTXFlushesAtHalfSessionWindow: a flush carries at most half of one
// session's credit window. With 8 credits a 6-packet request leaves as
// a SendBurst of 4 the moment its fourth packet is queued, and the rest
// at the end of the iteration; two other sessions' 3 packets each stay
// under the bound and share one SendBurst of 6.
func TestTXFlushesAtHalfSessionWindow(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{Credits: 8})
	var sess [3]*Session
	for i := range sess {
		s, err := r.CreateSession(transport.Addr{Node: uint16(2 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sess[i] = s
	}
	r.EnqueueRequest(sess[0], echoType, r.Alloc(6*r.DataPerPkt()), r.Alloc(8), func(error) {})
	r.flushTX()
	if len(ct.bursts) != 2 || len(ct.bursts[0]) != 4 || len(ct.bursts[1]) != 2 {
		t.Fatalf("6 packets of one session at 8 credits: SendBursts of %v frames, want 4 then 2", burstLens(ct.bursts))
	}
	ct.bursts = nil
	for _, s := range sess[1:] {
		r.EnqueueRequest(s, echoType, r.Alloc(3*r.DataPerPkt()), r.Alloc(8), func(error) {})
	}
	r.flushTX()
	if len(ct.bursts) != 1 || len(ct.bursts[0]) != 6 {
		t.Fatalf("3 packets each of two sessions: SendBursts of %v frames, want one of 6", burstLens(ct.bursts))
	}
}

func burstLens(bursts [][]transport.Frame) []int {
	var n []int
	for _, b := range bursts {
		n = append(n, len(b))
	}
	return n
}

// TestBurstSizeDefaultByDriver: left at 0, BurstSize is what one
// sendmmsg takes (transport.SocketBurst, 64) on an endpoint a goroutine
// drives and the paper's 16 on one the scheduler drives, for RX and TX
// alike; a value set in the Config wins on both.
func TestBurstSizeDefaultByDriver(t *testing.T) {
	check := func(what string, r *Rpc, want int) {
		t.Helper()
		if r.burst != want || len(r.rxFrames) != want || cap(r.txBatch) != want {
			t.Fatalf("%s: burst %d, RX burst %d, TX batch capacity %d; want %d", what, r.burst, len(r.rxFrames), cap(r.txBatch), want)
		}
	}
	check("goroutine-driven", newZCRpc(t, &captureTransport{}, Config{}), transport.SocketBurst)
	check("scheduler-driven", newEnv(t, 1, echoNexus(), nil, nil).rpcs[0], DefaultBurstSize)
	check("goroutine-driven, set", newZCRpc(t, &captureTransport{}, Config{BurstSize: 8}), 8)
	check("scheduler-driven, set", newEnv(t, 1, echoNexus(), func(c *Config) { c.BurstSize = 8 }, nil).rpcs[0], 8)
	if transport.SocketBurst != 64 || DefaultBurstSize != 16 {
		t.Fatalf("defaults %d and %d, want 64 and 16", transport.SocketBurst, DefaultBurstSize)
	}
}
