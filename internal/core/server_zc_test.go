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
// captured Data aliases live buffers that may be legitimately reused
// after the flush returns. It is the oracle for the zero-copy lifetime
// tests: if a queued alias's msgbuf is clobbered or freed before the
// flush, the snapshot shows the corruption.
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

// TestServerRespZeroCopyAliasesMsgbuf pins the response half of the
// Appendix C zero-copy contract: a response's packet-0 frame reaches
// SendBurst aliasing the server slot's respBuf backing array (no copy
// into a pooled wire buffer), with a TX reference held until the
// flush.
func TestServerRespZeroCopyAliasesMsgbuf(t *testing.T) {
	ct := &captureTransport{}
	r := newZCRpc(t, ct, Config{})
	from := transport.Addr{Node: 9}
	payload := bytes.Repeat([]byte{0xC7}, 24)
	injectReq(r, from, echoType, 8, payload)

	s := r.srvSessions[sessKey{addr: from, num: 0}]
	if s == nil {
		t.Fatal("no server session created")
	}
	ss := &s.srvSlots[0]
	if ss.respBuf == nil {
		t.Fatal("no response buffer on the slot")
	}
	if got := ss.respBuf.TXRefs(); got != 1 {
		t.Fatalf("queued response holds %d TX refs, want 1", got)
	}
	if r.Stats.ZeroCopyTx != 1 {
		t.Fatalf("Stats.ZeroCopyTx = %d, want 1", r.Stats.ZeroCopyTx)
	}
	alias := ss.respBuf.Frame(0, nil)
	r.flushTX()
	if got := ss.respBuf.TXRefs(); got != 0 {
		t.Fatalf("TX refs not released at flush: %d outstanding", got)
	}
	var sent []transport.Frame
	for _, b := range ct.bursts {
		sent = append(sent, b...)
	}
	if len(sent) != 1 {
		t.Fatalf("transport saw %d frames, want 1", len(sent))
	}
	if &sent[0].Data[0] != &alias[0] {
		t.Fatalf("response packet-0 frame was copied: sent base %p, msgbuf base %p",
			&sent[0].Data[0], &alias[0])
	}
	if !bytes.Equal(sent[0].Data[wire.HeaderSize:], payload) {
		t.Fatal("echoed response payload mismatch")
	}
}

// TestSrvSlotReuseDefersFree is the regression test for the
// resetSrvSlot use-after-free window: a new request arriving on a slot
// whose previous (pooled) response still sits in the TX batch as a
// zero-copy alias must not free — let alone clobber — that msgbuf.
// Pre-fix, resetSrvSlot called alloc.Free on a buffer with an
// outstanding TX reference (panic), or, absent the reference check,
// handed the buffer to the next response while the "DMA queue" still
// pointed at it.
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
	s := r.srvSessions[sessKey{addr: from, num: 0}]
	ss := &s.srvSlots[0]
	bufA := ss.respBuf
	if bufA == nil || bufA.TXRefs() != 1 {
		t.Fatal("first response not queued as a zero-copy alias")
	}

	// Same slot (reqNum ≡ 8 mod NumSlots), newer request: forces
	// resetSrvSlot while response A's alias is still in the TX batch.
	injectReq(r, from, echoType, 16, p2)
	if r.Stats.DeferredFrees != 1 {
		t.Fatalf("Stats.DeferredFrees = %d, want 1 (free deferred past the queued alias)",
			r.Stats.DeferredFrees)
	}
	if bufA.TXRefs() != 1 {
		t.Fatalf("deferred buffer lost its TX ref: %d", bufA.TXRefs())
	}

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
	if bufA.TXRefs() != 0 {
		t.Fatalf("deferred buffer still referenced after flush: %d", bufA.TXRefs())
	}
	if len(r.txFree) != 0 {
		t.Fatalf("deferred-free list not drained at flush: %d entries", len(r.txFree))
	}
}

// TestSrvPreallocReuseFlushesBatch covers the other slot-reuse hazard:
// the per-slot preallocated response buffer is reused *in place*, so a
// deferred free cannot protect it — AllocResponse must flush the TX
// batch before Resize/zeroing when the previous response's alias is
// still queued. Pre-fix, both flushed frames aliased the same
// preallocated buffer and carried the second response's bytes.
func TestSrvPreallocReuseFlushesBatch(t *testing.T) {
	ct := &snapTransport{}
	r := NewRpc(echoNexus(), Config{Transport: ct, Clock: sim.NewWallClock()})
	from := transport.Addr{Node: 9}
	p1 := bytes.Repeat([]byte{0xA1}, 24)
	p2 := bytes.Repeat([]byte{0xB2}, 24)

	injectReq(r, from, echoType, 8, p1) // response A queued on ss.prealloc
	injectReq(r, from, echoType, 16, p2)
	r.flushTX()

	if len(ct.bursts) != 2 {
		t.Fatalf("transport saw %d bursts, want 2 (AllocResponse must flush before prealloc reuse)",
			len(ct.bursts))
	}
	if got := ct.bursts[0]; len(got) != 1 || !bytes.Equal(got[0][wire.HeaderSize:], p1) {
		t.Fatal("response A corrupted: prealloc reused while its alias was queued")
	}
	if got := ct.bursts[1]; len(got) != 1 || !bytes.Equal(got[0][wire.HeaderSize:], p2) {
		t.Fatal("response B payload mismatch")
	}
}

// TestServerTeardownUnderLoadFlushesAliases is the teardown-ordering
// regression test: a handler that deferred its response (nested-RPC
// pattern) enqueues it from a failed request's continuation during
// FailPeer. The response's zero-copy alias is queued *after* FailPeer's
// initial flush, so the srvSessions reset loop must flush again (or
// defer the free) — pre-fix it freed the msgbuf with the alias still
// in the batch and panicked. The response must still reach the wire
// intact.
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

	r.FailPeer(peer.Node) // must not panic (pre-fix: Free with queued alias)

	if !failed {
		t.Fatal("continuation did not run")
	}
	if len(r.srvSessions) != 0 {
		t.Fatalf("server sessions survived FailPeer: %d", len(r.srvSessions))
	}
	if len(r.txFree) != 0 {
		t.Fatalf("deferred-free list not drained by FailPeer: %d entries", len(r.txFree))
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
