package core

import (
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// onReqPkt handles a request data packet at the server.
func (r *Rpc) onReqPkt(h *wire.Header, from transport.Addr, payload []byte) {
	if h.MsgSize > DefaultMaxMsg {
		// A request claiming a size we never accept is malformed or
		// hostile; drop it before it can size a buffer allocation.
		r.Stats.StalePktsRx++
		return
	}
	key := srvKey(from, h.DstSession)
	s := r.srvSessions[key]
	if s == nil {
		// Only an admitted request creates a server session (see
		// sessKey): a rejected or stray packet materializes nothing.
		if !r.admits(h, from) {
			return
		}
		s = &Session{
			rpc:      r,
			num:      h.DstSession,
			remote:   from,
			srvSlots: make([]srvSlot, DefaultNumSlots),
		}
		r.srvSessions[key] = s
	}
	idx := int(h.ReqNum % DefaultNumSlots)
	ss := &s.srvSlots[idx]

	switch {
	case h.ReqNum < ss.curReqNum:
		r.Stats.StalePktsRx++ // packet from a completed, older request
		return
	case h.ReqNum > ss.curReqNum:
		if ss.state == srvProcessing {
			// The previous request's handler is still running; a new
			// request on this slot should be impossible (the client
			// completes a slot only after the full response). Drop.
			r.Stats.StalePktsRx++
			return
		}
		if !r.admits(h, from) {
			return
		}
		r.resetSrvSlot(ss)
		ss.curReqNum = h.ReqNum
		ss.reqType = h.ReqType
		ss.msgSize = h.MsgSize
		ss.numReqPkts = wire.NumPkts(h.MsgSize, r.dataPerPkt)
		ss.state = srvReceiving
		r.srvInFlight++
	}

	n := int(h.PktNum)
	switch ss.state {
	case srvReceiving:
		switch {
		case n < ss.reqPktsRcvd:
			// Duplicate after a client rollback: re-ack so the client
			// makes progress.
			if n < ss.numReqPkts-1 {
				r.sendCR(s, ss, n)
			}
		case n > ss.reqPktsRcvd:
			r.Stats.StalePktsRx++ // reordered: dropped (§5.3)
		default:
			r.acceptReqPkt(s, ss, idx, n, payload)
		}
	case srvProcessing:
		// Retransmitted request while the handler runs: the response
		// is not ready; at-most-once forbids re-running the handler.
		r.Stats.StalePktsRx++
	case srvResponded:
		// Retransmission after we responded: re-send the ack the
		// client is missing.
		if n == ss.numReqPkts-1 {
			r.sendRespPkt(s, ss, 0, r.rxAt)
		} else {
			r.sendCR(s, ss, n)
		}
	default:
		r.Stats.StalePktsRx++
	}
}

// admits reports whether request packet h may start a new request.
// It is the admission point for overload shedding and drain: every
// packet of an unadmitted request draws an explicit reject, and the
// client backs off instead of RTO-storming (§4.3's bounded slots made
// server memory safe; this bounds CPU). Otherwise only a request's
// first packet starts it: a later one would be dropped as reordered,
// and admitted it would hold a slot and srvInFlight until FailPeer.
func (r *Rpc) admits(h *wire.Header, from transport.Addr) bool {
	switch {
	case r.draining || r.overloaded():
		r.sendReject(from, h)
	case h.PktNum > 0:
		r.Stats.StalePktsRx++
	default:
		return true
	}
	return false
}

// overloaded reports whether admitting one more request would exceed
// the server-wide in-flight ceiling (a session is bounded by
// DefaultNumSlots on its own).
func (r *Rpc) overloaded() bool {
	lim := r.cfg.SrvInFlightLimit
	return lim > 0 && r.srvInFlight >= lim
}

// sendReject transmits an explicit rejection for the request h
// identifies. Header-only, addressed by the client's own session and
// request numbers, so it needs no server-side session state — a
// draining endpoint can reject without materializing a session.
func (r *Rpc) sendReject(from transport.Addr, h *wire.Header) {
	r.Stats.RejectsTx++
	r.charge(r.cost.PktTx)
	r.sendCtrl(from, wire.Header{
		PktType:    wire.PktReject,
		ReqType:    h.ReqType,
		MsgSize:    h.MsgSize,
		DstSession: h.DstSession,
		PktNum:     h.PktNum,
		ReqNum:     h.ReqNum,
	}, 0)
}

// acceptReqPkt integrates an in-order request packet and invokes the
// handler when the request is complete.
func (r *Rpc) acceptReqPkt(s *Session, ss *srvSlot, idx, n int, payload []byte) {
	if ss.numReqPkts > 1 {
		if ss.reqBuf == nil {
			r.charge(r.cost.DynAlloc)
			ss.reqBuf = r.alloc.Alloc(int(ss.msgSize))
		}
		off := n * r.dataPerPkt
		copied := copy(ss.reqBuf.Data()[off:], payload)
		r.chargeBytes(copied)
	}
	ss.reqPktsRcvd++
	if n < ss.numReqPkts-1 {
		r.sendCR(s, ss, n)
	}
	if ss.reqPktsRcvd == ss.numReqPkts {
		// Response packet 0 reports its delay from this packet's arrival:
		// the handler's own time counts as endpoint delay, as in Swift.
		ss.rxAt = r.rxAt
		r.invokeHandler(s, ss, idx, payload)
	}
}

// invokeHandler runs the registered handler in dispatch or worker mode
// (§3.2).
func (r *Rpc) invokeHandler(s *Session, ss *srvSlot, idx int, lastPayload []byte) {
	h := r.nexus.handler(ss.reqType)
	if h == nil {
		// No handler: the request is dropped; misregistration is an
		// application bug (the client will retry until RTO storms
		// surface it).
		r.Stats.StalePktsRx++
		ss.state = srvIdle
		r.srvInFlight--
		return
	}
	ctx := r.getReqCtx()
	ctx.rpc = r
	ctx.sess = s
	ctx.slotIdx = idx
	ctx.reqNum = ss.curReqNum
	ctx.ReqType = ss.reqType
	switch {
	case ss.numReqPkts > 1:
		ctx.Req = ss.reqBuf.Data()
	case h.RunInWorker || r.opts.DisableZeroCopyRX:
		// Copy the single-packet request out of the RX buffer: worker
		// handlers outlive it; the disabled-optimization
		// path models Table 3's "0-copy request processing" row.
		if r.opts.DisableZeroCopyRX && !h.RunInWorker {
			r.charge(r.cost.ZeroCopyOff)
		} else {
			r.charge(r.cost.DynAlloc)
			r.chargeBytes(len(lastPayload))
		}
		ctx.reqCopy = make([]byte, len(lastPayload))
		copy(ctx.reqCopy, lastPayload)
		ctx.Req = ctx.reqCopy
	default:
		// Common case: zero-copy request processing (§4.2.3). The
		// slice aliases the RX buffer and is valid only while the
		// handler runs.
		ctx.Req = lastPayload
	}
	ss.state = srvProcessing
	r.Stats.HandlersRun++

	cost := h.Cost
	if cost == 0 {
		cost = r.cost.DefHandler
	}
	if !h.RunInWorker {
		r.charge(cost)
		h.Fn(ctx)
		return
	}

	// Worker mode: hand off to a worker thread; the dispatch thread
	// pays only the handoff cost and stays responsive (§3.2).
	r.Stats.WorkerHandlers++
	ctx.inWorker = true
	r.charge(r.cost.WorkerDispatch)
	r.drv.offload(func() { h.Fn(ctx) }, cost)
}

// getReqCtx takes a recycled request context (EnqueueResponse is its
// end of life; see putReqCtx).
func (r *Rpc) getReqCtx() *ReqContext {
	if n := len(r.ctxFree); n > 0 {
		c := r.ctxFree[n-1]
		r.ctxFree[n-1] = nil
		r.ctxFree = r.ctxFree[:n-1]
		return c
	}
	return &ReqContext{}
}

// putReqCtx recycles a finished request context. Dispatch context
// only.
func (r *Rpc) putReqCtx(c *ReqContext) {
	*c = ReqContext{}
	r.ctxFree = append(r.ctxFree, c)
}

// sendQueuedResponse finalizes a handler's response on the dispatch
// thread and transmits its first packet. It is the end of the
// ReqContext's life: the context is recycled, so handlers must not
// touch it (or ctx.Req) after EnqueueResponse.
func (r *Rpc) sendQueuedResponse(ctx *ReqContext) {
	s := ctx.sess
	if s.failed {
		r.putReqCtx(ctx)
		return
	}
	ss := &s.srvSlots[ctx.slotIdx]
	if ss.curReqNum != ctx.reqNum || ss.state != srvProcessing {
		r.putReqCtx(ctx)
		return // slot was reset (e.g. peer failure) while the worker ran
	}
	if ctx.respBuf == nil {
		panic("erpc: EnqueueResponse without AllocResponse")
	}
	if ss.reqBuf != nil {
		r.alloc.Free(ss.reqBuf)
		ss.reqBuf = nil
	}
	ss.respBuf = ctx.respBuf
	ss.respIsPrealloc = ctx.respIsPrealloc
	ss.respPooled = ctx.respPooled
	ss.state = srvResponded
	r.srvInFlight-- // the request left the admitted (receiving/executing) set
	r.putReqCtx(ctx)
	r.sendRespPkt(s, ss, 0, ss.rxAt)
}

// sendRespPkt transmits response packet k, answering the packet the
// kernel received at rxAt (its endpoint delay's start; the flush writes
// the delay). Packets after the first are sent only in reply to RFRs
// (client-driven protocol, §5.1).
func (r *Rpc) sendRespPkt(s *Session, ss *srvSlot, k int, rxAt sim.Time) {
	h := wire.Header{
		PktType:    wire.PktResp,
		ReqType:    ss.reqType,
		MsgSize:    uint32(ss.respBuf.MsgSize()),
		DstSession: s.num,
		PktNum:     uint16(k),
		ReqNum:     ss.curReqNum,
	}
	if err := h.Encode(ss.respBuf.PktHeader(k)); err != nil {
		panic("erpc: header encode: " + err.Error())
	}
	r.charge(r.cost.PktTx)
	r.sendPkt(s.remote, ss.respBuf, k, rxAt)
}

// sendCR transmits an explicit credit return for request packet n, the
// packet being processed.
func (r *Rpc) sendCR(s *Session, ss *srvSlot, n int) {
	r.charge(r.cost.PktTx)
	r.sendCtrl(s.remote, wire.Header{
		PktType:    wire.PktCR,
		ReqType:    ss.reqType,
		MsgSize:    ss.msgSize,
		DstSession: s.num,
		PktNum:     uint16(n),
		ReqNum:     ss.curReqNum,
	}, r.rxAt)
}

// onRFR handles a request-for-response packet.
func (r *Rpc) onRFR(h *wire.Header, from transport.Addr) {
	s := r.srvSessions[srvKey(from, h.DstSession)]
	if s == nil {
		// No request made this session: the RFR is stale or stray,
		// and must not cost a session of the §4.3.1 budget.
		r.Stats.StalePktsRx++
		return
	}
	idx := int(h.ReqNum % DefaultNumSlots)
	ss := &s.srvSlots[idx]
	if h.ReqNum != ss.curReqNum || ss.state != srvResponded {
		r.Stats.StalePktsRx++
		return
	}
	k := int(h.PktNum)
	if k < 1 || k >= ss.respBuf.NumPkts() {
		r.Stats.StalePktsRx++
		return
	}
	r.sendRespPkt(s, ss, k, r.rxAt)
}

// resetSrvSlot releases a slot's buffers before reuse. A response still
// queued in the TX batch is a copy there, so its buffer is free to go.
func (r *Rpc) resetSrvSlot(ss *srvSlot) {
	if ss.state == srvReceiving || ss.state == srvProcessing {
		// The slot held an admitted request (teardown or peer-failure
		// reset mid-receive/mid-execute): release its share of the
		// server-wide in-flight ceiling.
		r.srvInFlight--
	}
	if ss.reqBuf != nil {
		r.alloc.Free(ss.reqBuf)
		ss.reqBuf = nil
	}
	if ss.respBuf != nil && !ss.respIsPrealloc && ss.respPooled {
		r.alloc.Free(ss.respBuf)
	}
	ss.respBuf = nil
	ss.respIsPrealloc = false
	ss.respPooled = false
	ss.reqPktsRcvd = 0
	ss.numReqPkts = 0
	ss.state = srvIdle
}

// ReqContext is the server-side context passed to request handlers
// (the paper's req_handle). Handlers fill a response via AllocResponse
// and submit it with EnqueueResponse — immediately, or later for
// nested RPCs (§3.1). EnqueueResponse ends the context's life: the
// struct is recycled into the endpoint's pool, so neither the context
// nor ctx.Req may be used afterwards.
type ReqContext struct {
	rpc     *Rpc
	sess    *Session
	slotIdx int
	reqNum  uint64

	// ReqType is the request's registered type.
	ReqType uint8
	// Req is the request data. For dispatch-mode handlers of
	// single-packet requests it aliases the RX buffer (zero copy) and is
	// valid only until the handler returns; handlers that defer their
	// response must copy it.
	Req []byte

	reqCopy        []byte
	respBuf        *msgbuf.Buf
	respIsPrealloc bool
	respPooled     bool
	inWorker       bool
}

// Rpc returns the endpoint that received this request, letting shared
// handlers dispatch to per-endpoint state.
func (c *ReqContext) Rpc() *Rpc { return c.rpc }

// AllocResponse returns a zeroed response buffer of n bytes. Responses
// that fit in one packet use the slot's preallocated msgbuf, avoiding
// dynamic allocation (§4.3).
func (c *ReqContext) AllocResponse(n int) []byte {
	r := c.rpc
	if n > DefaultMaxMsg {
		panic("erpc: response exceeds DefaultMaxMsg")
	}
	ss := &c.sess.srvSlots[c.slotIdx]
	usePrealloc := !r.opts.DisablePreallocResponses && n <= r.dataPerPkt && !c.inWorker
	switch {
	case usePrealloc:
		if ss.prealloc == nil {
			ss.prealloc = msgbuf.NewBuf(r.dataPerPkt, r.dataPerPkt)
		}
		if !c.inWorker {
			r.charge(r.cost.RespPrep)
		}
		ss.prealloc.Resize(n)
		c.respBuf = ss.prealloc
		c.respIsPrealloc = true
		c.respPooled = false
	case c.inWorker:
		// Worker threads must not touch the dispatch thread's pooled
		// allocator; use an unpooled buffer.
		c.respBuf = msgbuf.NewBuf(n, r.dataPerPkt)
		c.respIsPrealloc = false
		c.respPooled = false
	default:
		if r.opts.DisablePreallocResponses && n <= r.dataPerPkt {
			r.charge(r.cost.PreallocOff)
		} else {
			r.charge(r.cost.DynAlloc)
		}
		c.respBuf = r.alloc.Alloc(n)
		c.respIsPrealloc = false
		c.respPooled = true
	}
	data := c.respBuf.Data()
	for i := range data {
		data[i] = 0
	}
	return data
}

// EnqueueResponse submits the response filled via AllocResponse. It
// may be called from the handler, from a later dispatch-context event
// (nested RPCs), or from a worker thread.
func (c *ReqContext) EnqueueResponse() {
	r := c.rpc
	if !c.inWorker {
		r.sendQueuedResponse(c)
		return
	}
	// Publish through the unbounded Post queue so a worker (or a
	// handler running inline on a dispatch goroutine during pool
	// shutdown) never blocks on a full channel — a blocked worker
	// would stall the shared pool for every endpoint. Outstanding
	// completions are bounded by the protocol anyway: at most one
	// per server-side slot.
	r.Post(func() {
		r.charge(r.cost.WorkerReturn)
		r.sendQueuedResponse(c)
	})
}
