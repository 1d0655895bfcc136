package core

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// snapTransport records a byte snapshot of every frame at SendBurst
// time — what the wire actually saw — unlike captureTransport, whose
// captured Data aliases the TX arena, which the next batch reuses. It is
// the oracle for the TX lifetime tests: if a queued frame's bytes change
// before the flush, the snapshot shows the corruption.
type snapTransport struct {
	bursts [][][]byte
}

func (c *snapTransport) MTU() int                  { return 1472 }
func (c *snapTransport) LocalAddr() transport.Addr { return transport.Addr{Node: 1} }
func (c *snapTransport) SendBurst(frames []transport.Frame) {
	burst := make([][]byte, len(frames))
	for i := range frames {
		burst[i] = append([]byte(nil), frames[i].Data...)
	}
	c.bursts = append(c.bursts, burst)
}
func (c *snapTransport) RecvBurst(frames []transport.Frame) int { return 0 }
func (c *snapTransport) SetWake(func())                         {}
func (c *snapTransport) Close() error                           { return nil }

// injectReq delivers a single-packet request to r as if it arrived
// from the wire.
func injectReq(r *Rpc, from transport.Addr, reqType uint8, reqNum uint64, payload []byte) {
	r.processPkt(fuzzFrame(wire.Header{
		PktType: wire.PktReq,
		ReqType: reqType,
		MsgSize: uint32(len(payload)),
		PktNum:  0,
		ReqNum:  reqNum,
	}, payload), from)
}

// TestServerRespZeroCopyAliasesMsgbuf: a dispatch-mode handler's
// single-packet response leaves in the flush as one frame carrying the
// echoed payload.
func TestServerRespZeroCopyAliasesMsgbuf(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{})
	from := transport.Addr{Node: 9}
	payload := bytes.Repeat([]byte{0xC7}, 24)
	injectReq(r, from, echoType, 8, payload)

	s := r.srvSessions[srvKey(from, 0)]
	if s == nil {
		t.Fatal("no server session created")
	}
	ss := &s.srvSlots[0]
	if ss.respBuf == nil {
		t.Fatal("no response buffer on the slot")
	}
	r.flushTX()
	sent := sentFrames(ct.bursts)
	if len(sent) != 1 {
		t.Fatalf("transport saw %d frames, want 1", len(sent))
	}
	if !bytes.Equal(sent[0].Data[wire.HeaderSize:], payload) {
		t.Fatal("echoed response payload mismatch")
	}
}

// TestSrvSlotReuseDefersFree: a new request arriving on a slot whose
// previous (pooled) response still sits in the TX batch frees that
// response's msgbuf at once, and the next response may reuse it; the
// queued frame is the batch's own copy, so the wire still carries the
// first response's bytes.
func TestSrvSlotReuseDefersFree(t *testing.T) {
	ct := &snapTransport{}
	r := NewRpc(echoNexus(), Config{
		Transport: ct,
		Clock:     sim.NewWallClock(),
		Opts:      Opts{DisablePreallocResponses: true}, // pooled responses
	})
	from := transport.Addr{Node: 9}
	p1 := bytes.Repeat([]byte{0xA1}, 24)
	p2 := bytes.Repeat([]byte{0xB2}, 24)

	injectReq(r, from, echoType, 8, p1) // response queued, not flushed
	s := r.srvSessions[srvKey(from, 0)]
	ss := &s.srvSlots[0]
	if ss.respBuf == nil || len(r.txBatch) != 1 {
		t.Fatal("first response not queued")
	}

	// Same slot (reqNum ≡ 8 mod NumSlots), newer request: forces
	// resetSrvSlot while response A is still in the TX batch.
	injectReq(r, from, echoType, 16, p2)

	r.flushTX()
	var sent [][]byte
	for _, b := range ct.bursts {
		sent = append(sent, b...)
	}
	if len(sent) != 2 {
		t.Fatalf("transport saw %d frames, want 2", len(sent))
	}
	if !bytes.Equal(sent[0][wire.HeaderSize:], p1) {
		t.Fatal("response A payload corrupted by slot reuse before the flush")
	}
	if !bytes.Equal(sent[1][wire.HeaderSize:], p2) {
		t.Fatal("response B payload mismatch")
	}
}

// TestSrvPreallocReuseFlushesBatch covers the other slot reuse: the
// per-slot preallocated response buffer is reused in place, resized and
// zeroed while the previous response is still queued in the TX batch.
// Both responses must reach the wire with their own bytes.
func TestSrvPreallocReuseFlushesBatch(t *testing.T) {
	ct := &snapTransport{}
	r := NewRpc(echoNexus(), Config{Transport: ct, Clock: sim.NewWallClock()})
	from := transport.Addr{Node: 9}
	p1 := bytes.Repeat([]byte{0xA1}, 24)
	p2 := bytes.Repeat([]byte{0xB2}, 24)

	injectReq(r, from, echoType, 8, p1) // response A queued on ss.prealloc
	injectReq(r, from, echoType, 16, p2)
	r.flushTX()

	var sent [][]byte
	for _, b := range ct.bursts {
		sent = append(sent, b...)
	}
	if len(sent) != 2 {
		t.Fatalf("transport saw %d frames, want 2", len(sent))
	}
	if !bytes.Equal(sent[0][wire.HeaderSize:], p1) {
		t.Fatal("response A corrupted: prealloc reused while it was queued")
	}
	if !bytes.Equal(sent[1][wire.HeaderSize:], p2) {
		t.Fatal("response B payload mismatch")
	}
}

// TestServerTeardownUnderLoadFlushesAliases is the teardown-ordering
// test: a handler that deferred its response (nested-RPC pattern)
// enqueues it from a failed request's continuation during FailPeer. The
// response is queued after FailPeer's initial flush, and the
// srvSessions reset loop frees its msgbuf while it is still in the
// batch. It must still reach the wire intact.
func TestServerTeardownUnderLoadFlushesAliases(t *testing.T) {
	const deferredType = 2
	var saved *ReqContext
	nx := NewNexus()
	nx.Register(deferredType, Handler{Fn: func(ctx *ReqContext) {
		saved = ctx // respond later, from another event
	}})
	ct := &snapTransport{}
	r := NewRpc(nx, Config{
		Transport: ct,
		Clock:     sim.NewWallClock(),
		Opts:      Opts{DisablePreallocResponses: true}, // pooled responses
	})
	peer := transport.Addr{Node: 9}
	p1 := bytes.Repeat([]byte{0xD4}, 24)

	// A request from the peer parks in srvProcessing...
	injectReq(r, peer, deferredType, 8, nil)
	if saved == nil {
		t.Fatal("handler did not run")
	}
	// ...while an outgoing request to the same (about-to-fail) peer
	// carries a continuation that enqueues the parked response.
	s, err := r.CreateSession(peer)
	if err != nil {
		t.Fatal(err)
	}
	req, resp := r.Alloc(8), r.Alloc(8)
	failed := false
	r.EnqueueRequest(s, deferredType, req, resp, func(err error) {
		if err == nil {
			t.Error("continuation completed without error on FailPeer")
		}
		failed = true
		out := saved.AllocResponse(len(p1))
		copy(out, p1)
		saved.EnqueueResponse()
	})

	r.FailPeer(peer.Node)

	if !failed {
		t.Fatal("continuation did not run")
	}
	if len(r.srvSessions) != 0 {
		t.Fatalf("server sessions survived FailPeer: %d", len(r.srvSessions))
	}
	var sent [][]byte
	for _, b := range ct.bursts {
		sent = append(sent, b...)
	}
	found := false
	for _, f := range sent {
		if len(f) >= wire.HeaderSize && bytes.Equal(f[wire.HeaderSize:], p1) {
			found = true
		}
	}
	if !found {
		t.Fatal("late-enqueued response never reached the wire intact")
	}
}
