package core

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// captureTransport records every SendBurst's frames (sharing the
// caller's Data slices, like a real transport mid-call) so tests can
// inspect what the TX batch handed down and with which backing arrays.
type captureTransport struct {
	bursts [][]transport.Frame
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

// TestZeroCopyTxAliasesMsgbuf: in real-transport mode a single-packet
// request leaves in the loop's flush as one frame, the request
// msgbuf's header then data.
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
	r.RunEventLoopOnce() // flushes the TX batch
	sent := sentFrames(ct.bursts)
	if len(sent) != 1 {
		t.Fatalf("transport saw %d frames, want 1", len(sent))
	}
	if !bytes.Equal(sent[0].Data, req.Frame(0, nil)) {
		t.Fatal("packet-0 frame is not the request's header then data")
	}
}

func sentFrames(bursts [][]transport.Frame) []transport.Frame {
	var sent []transport.Frame
	for _, b := range bursts {
		sent = append(sent, b...)
	}
	return sent
}

// TestTXFramesLieInArena: every frame SendBurst sees — a control
// packet, a request's packet 0 and its packet 1 — lies in the Rpc's TX
// arena, each right after the previous one, and none in the request
// msgbuf; each carries the bytes the msgbuf had when it was queued.
func TestTXFramesLieInArena(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{})
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A ping queues a pong; a request of DataPerPkt+8 bytes, packets 0
	// and 1.
	r.processPkt(fuzzFrame(wire.Header{PktType: wire.PktPing}, nil), transport.Addr{Node: 3})
	req := r.Alloc(r.DataPerPkt() + 8)
	for i := range req.Data() {
		req.Data()[i] = byte(i)
	}
	r.EnqueueRequest(s, echoType, req, r.Alloc(8), func(error) {})
	want := [][]byte{nil, req.Frame(0, nil), req.Frame(1, nil)}
	r.flushTX()

	sent := sentFrames(ct.bursts)
	if len(sent) != 3 {
		t.Fatalf("transport saw %d frames, want a pong and two request packets", len(sent))
	}
	off := 0
	for i, f := range sent {
		if &f.Data[0] != &r.txArena[off] {
			t.Fatalf("frame %d does not lie at TX arena offset %d", i, off)
		}
		off += len(f.Data)
		if want[i] != nil && !bytes.Equal(f.Data, want[i]) {
			t.Fatalf("frame %d is not request packet %d's header then data", i, i-1)
		}
	}
	if len(sent[0].Data) != wire.HeaderSize {
		t.Fatalf("pong frame is %d bytes, want a %d B header", len(sent[0].Data), wire.HeaderSize)
	}
}

// TestRespCompletesWhileRetransmissionQueued: a response that arrives
// while the request's retransmitted packet 0 still sits in the unflushed
// TX batch completes the RPC. The continuation may rewrite and free the
// request at once: the batch holds its own copy, and the wire carries
// the bytes as they were queued. (The server takes that copy for a
// duplicate, which at-most-once absorbs.)
func TestRespCompletesWhileRetransmissionQueued(t *testing.T) {
	ct := &snapTransport{}
	r := newZCRpc(t, ct, Config{})
	s, err := r.CreateSession(transport.Addr{Node: 2})
	if err != nil {
		t.Fatal(err)
	}
	req, resp := r.Alloc(32), r.Alloc(32)
	payload := bytes.Repeat([]byte{0x5A}, 32)
	copy(req.Data(), payload)
	done := false
	r.EnqueueRequest(s, echoType, req, resp, func(err error) {
		if err != nil {
			t.Errorf("continuation: %v", err)
		}
		done = true
		for i := range req.Data() {
			req.Data()[i] = 0xEE
		}
		r.Free(req)
	})
	r.flushTX()
	r.rollback(s, 0) // an RTO: packet 0 is queued again
	if len(r.txBatch) != 1 {
		t.Fatalf("TX batch holds %d frames after the rollback, want the retransmission", len(r.txBatch))
	}
	r.processPkt(fuzzFrame(wire.Header{
		PktType:    wire.PktResp,
		ReqType:    echoType,
		MsgSize:    32,
		DstSession: s.num,
		ReqNum:     s.slots[0].reqNum,
	}, payload), s.remote)
	if !done {
		t.Fatal("response dropped while the retransmission was queued")
	}
	if !bytes.Equal(resp.Data(), payload) {
		t.Fatal("response payload mismatch")
	}
	r.flushTX()
	var sent [][]byte
	for _, b := range ct.bursts {
		sent = append(sent, b...)
	}
	if len(sent) != 2 {
		t.Fatalf("transport saw %d frames, want the request and its retransmission", len(sent))
	}
	for i, f := range sent {
		if !bytes.Equal(f[wire.HeaderSize:], payload) {
			t.Fatalf("frame %d does not carry the request as it was queued", i)
		}
	}
}

// TestZeroCopyTxTeardownReleasesRefs checks the failure path: failing
// a session with the request's packet 0 still queued runs the
// continuation, which may free the request and response buffers at
// once.
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
		r.Free(req)
		r.Free(resp)
		freed = true
	})
	r.DestroySession(s)
	if !freed {
		t.Fatal("continuation did not run on DestroySession")
	}
}

// TestTXFlushesAtBurstSize checks the mid-iteration flush: the TX
// batch goes out as one SendBurst the moment it holds a burst of frames
// (transport.SocketBurst, 64), and a shorter remainder waits for the
// end-of-iteration flush. The 65 single-packet requests fill the slots
// of nine sessions.
func TestTXFlushesAtBurstSize(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{})
	const n = transport.SocketBurst + 1
	for i := 0; i < n; i++ {
		if i%DefaultNumSlots == 0 {
			if _, err := r.CreateSession(transport.Addr{Node: uint16(2 + i/DefaultNumSlots)}); err != nil {
				t.Fatal(err)
			}
		}
		req, resp := r.Alloc(8), r.Alloc(8)
		r.EnqueueRequest(r.sessions[i/DefaultNumSlots], echoType, req, resp, func(error) {})
	}
	if got := burstLens(ct.bursts); len(got) != 1 || got[0] != transport.SocketBurst {
		t.Fatalf("%d packets: SendBursts of %v frames before the iteration ended, want one of %d", n, got, transport.SocketBurst)
	}
	r.flushTX()
	if got := burstLens(ct.bursts); len(got) != 2 || got[1] != 1 {
		t.Fatalf("end-of-iteration flush: SendBursts of %v frames, want a second one of 1", got)
	}
}

func burstLens(bursts [][]transport.Frame) []int {
	var n []int
	for _, b := range bursts {
		n = append(n, len(b))
	}
	return n
}

// TestBurstSizeDefaultByDriver: the burst is what one sendmmsg takes
// (transport.SocketBurst, 64) on an endpoint a goroutine drives and the
// paper's 16 on one the scheduler drives, for RX and TX alike.
func TestBurstSizeDefaultByDriver(t *testing.T) {
	check := func(what string, r *Rpc, want int) {
		t.Helper()
		if r.burst != want || len(r.rxFrames) != want || cap(r.txBatch) != want {
			t.Fatalf("%s: burst %d, RX burst %d, TX batch capacity %d; want %d", what, r.burst, len(r.rxFrames), cap(r.txBatch), want)
		}
	}
	check("goroutine-driven", newZCRpc(t, &captureTransport{}, Config{}), transport.SocketBurst)
	check("scheduler-driven", newEnv(t, 1, echoNexus(), nil, nil).rpcs[0], DefaultBurstSize)
	if transport.SocketBurst != 64 || DefaultBurstSize != 16 {
		t.Fatalf("defaults %d and %d, want 64 and 16", transport.SocketBurst, DefaultBurstSize)
	}
}
