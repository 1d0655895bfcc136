package core

import (
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// processPkt handles one received frame. It is the top of eRPC's RX
// path: decode the header into a preallocated struct (the gopacket
// DecodingLayer idiom — no allocation), then demultiplex to the client
// or server half of the protocol.
func (r *Rpc) processPkt(frame []byte, from transport.Addr) {
	r.Stats.PktsRx++
	r.Stats.BytesRx += uint64(len(frame))
	r.charge(r.cost.PktRx)
	if r.opts.DisableMultiPacketRQ {
		r.charge(r.cost.MultiRQOff)
	}
	h := &r.decoded
	if err := h.Decode(frame); err != nil {
		r.Stats.StalePktsRx++
		return
	}
	if r.cfg.HeartbeatInterval > 0 {
		r.lastHeard[from.Node] = r.now()
	}
	payload := frame[wire.HeaderSize:]
	switch h.PktType {
	case wire.PktCR:
		r.onCR(h)
	case wire.PktResp:
		r.onResp(h, payload)
	case wire.PktReq:
		r.onReqPkt(h, from, payload)
	case wire.PktRFR:
		r.onRFR(h, from)
	case wire.PktPing:
		r.sendCtrl(from, wire.Header{PktType: wire.PktPong}, 0)
	case wire.PktPong:
		// lastHeard already updated.
	case wire.PktReject:
		r.onReject(h)
	}
}

// clientSlot validates a server→client packet and returns its session
// and slot, or nil if the packet is stale.
func (r *Rpc) clientSlot(h *wire.Header) (*Session, *sslot, int) {
	if int(h.DstSession) >= len(r.sessions) {
		r.Stats.StalePktsRx++
		return nil, nil, 0
	}
	s := r.sessions[h.DstSession]
	if s.failed {
		r.Stats.StalePktsRx++
		return nil, nil, 0
	}
	idx := int(h.ReqNum % DefaultNumSlots)
	ss := &s.slots[idx]
	if !ss.busy || ss.reqNum != h.ReqNum {
		r.Stats.StalePktsRx++
		return nil, nil, 0
	}
	return s, ss, idx
}

// onCR handles an explicit credit return for request packet h.PktNum
// (paper §5.1).
func (r *Rpc) onCR(h *wire.Header) {
	s, ss, idx := r.clientSlot(h)
	if s == nil {
		return
	}
	n := int(h.PktNum)
	if n != ss.reqAcked || n >= ss.numReqPkts-1 {
		// Out-of-order or duplicate CR (e.g. after a rollback): drop,
		// like any reordered packet (§5.3).
		r.Stats.StalePktsRx++
		return
	}
	ss.reqAcked++
	if ss.inFlight > 0 {
		ss.inFlight--
		s.credits++
	}
	ss.lastProgress = r.now()
	ss.consecRTO = 0
	ss.rejects = 0
	r.rttSample(s, ss.reqTxTimes[n], h)
	r.trySendSlot(s, idx)
	r.kickSession(s)
}

// onResp handles a response data packet.
func (r *Rpc) onResp(h *wire.Header, payload []byte) {
	s, ss, idx := r.clientSlot(h)
	if s == nil {
		return
	}
	k := int(h.PktNum)
	if k != ss.respRcvd {
		r.Stats.StalePktsRx++ // reordered/duplicate response packet
		return
	}
	if k == 0 {
		// First response packet: reveals the response size and
		// implicitly returns the credits of all unacked request
		// packets (§5.1).
		ss.respNumPkts = wire.NumPkts(h.MsgSize, r.dataPerPkt)
		ss.rfrSent = 1
		delta := ss.numReqPkts - ss.reqAcked
		if delta > ss.inFlight {
			delta = ss.inFlight
		}
		ss.inFlight -= delta
		s.credits += delta
		ss.reqAcked = ss.numReqPkts
		r.rttSample(s, ss.reqTxTimes[ss.numReqPkts-1], h)
		if int(h.MsgSize) > ss.resp.MaxData() {
			r.failSlot(s, idx, ErrRespTooBig)
			return
		}
		ss.resp.Resize(int(h.MsgSize))
		ss.respTxTimes = growTimes(ss.respTxTimes, ss.respNumPkts)
	} else {
		if ss.inFlight > 0 {
			ss.inFlight--
			s.credits++
		}
		r.rttSample(s, ss.respTxTimes[k], h)
	}
	ss.lastProgress = r.now()
	ss.consecRTO = 0
	ss.rejects = 0
	// Copy the packet's data into the response msgbuf (§3.1: "the
	// event loop copies it to the client's response msgbuf").
	off := k * r.dataPerPkt
	n := copy(ss.resp.Data()[off:], payload)
	r.chargeBytes(n)
	ss.respRcvd++

	if ss.respRcvd == ss.respNumPkts {
		r.completeSlot(s, idx)
		return
	}
	r.trySendSlot(s, idx)
	r.kickSession(s)
}

// completeSlot finishes a successful RPC: invoke the continuation and
// recycle the slot.
func (r *Rpc) completeSlot(s *Session, idx int) {
	ss := &s.slots[idx]
	cont := ss.cont
	ss.reset()
	if !r.opts.DisableCC {
		r.charge(r.cost.CCBasePerRPC)
	}
	r.complete(cont, nil)
	r.popBacklog(s, idx)
	r.kickSession(s)
}

// failSlot finishes an RPC with an error.
func (r *Rpc) failSlot(s *Session, idx int, err error) {
	ss := &s.slots[idx]
	cont := ss.cont
	s.credits += ss.inFlight
	ss.reset()
	r.complete(cont, err)
	r.popBacklog(s, idx)
}

// popBacklog starts a queued request on a freed slot (§4.3:
// "additional requests are transparently queued").
func (r *Rpc) popBacklog(s *Session, idx int) {
	if len(s.backlog) == 0 || s.slots[idx].busy {
		return
	}
	p := s.backlog[0]
	s.backlog = s.backlog[:copy(s.backlog, s.backlog[1:])]
	r.startRequest(s, idx, p.reqType, p.req, p.resp, p.cont)
	r.trySendSlot(s, idx)
}

// rttSample processes one RTT measurement at the client (§5.2.2). The
// same sample feeds both consumers of path delay: the Timely rate
// controller and the adaptive RTO estimator.
//
// Both ends of the sample are batched timestamps (optimization 3). Over
// a real transport both are the loop clock (now()): the TX end is the
// read that preceded the send, the RX end the one read taken as
// RecvBurst returned — packets of one burst arrived together, and
// reading the clock per packet instead adds each packet's processing
// time to the next one's sample, a rising ramp that Timely takes for a
// queue building up. In simulated time the TX end is the CPU cursor at
// the top of the pass that sent the packet (txStamp), and the RX end is
// the cursor itself, which costs nothing to read and is the model's
// statement of when this packet is processed.
// Opts.DisableBatchedTimestamps reads the clock per packet on both ends.
//
// Timely takes the fabric's share of the sample that the CR or
// response h ends: rtt less the time the packets spent inside either
// host — hostDelay on the receive sides, txDwell on this host's send
// side — clamped to [0, rtt] (Swift's endpoint/fabric split). On
// loopback the rest is nearly all of it — the time the two hosts take
// to wake their loops and reach the packet — and fed whole it keeps
// every session off line rate. The server's report runs to the clock
// read of the flush that carried its reply, so its time between
// encoding the reply and flushing it is host delay too. A queue before
// the receiving kernel still counts as fabric, as does the time the
// server's send syscall takes to hand the reply to the kernel. The RTO
// estimator and RTTHook keep the whole rtt: a retransmission must wait
// out the round trip, however it was spent.
func (r *Rpc) rttSample(s *Session, txTime sim.Time, h *wire.Header) {
	if txTime == 0 {
		return
	}
	rtt := r.now() - txTime
	if rtt < 0 {
		return
	}
	if r.RTTHook != nil {
		r.RTTHook(rtt)
	}
	r.updateRTO(s, rtt)
	if r.opts.DisableCC || s.cc.timely == nil {
		return
	}
	fabric := max(rtt-r.hostDelay(h)-r.txDwell(txTime), 0)
	if r.opts.DisableBatchedTimestamps {
		r.charge(r.cost.TSExtraPerRPC)
	}
	tl := s.cc.timely
	if r.opts.DisableTimelyBypass {
		r.charge(r.cost.TimelyNoBypass)
	} else {
		// Timely bypass: skip the rate update for uncongested sessions
		// with RTTs under the low threshold.
		if tl.Uncongested() && fabric < tl.TLow() {
			return
		}
		r.charge(r.cost.TimelyUpdate)
	}
	r.Stats.TimelyUpdates++
	tl.Update(fabric)
}

// hostDelay is the part of the RTT sample that the CR or response h
// ends which both hosts spent holding packets: the server's report
// (h.EndpointDelay, from its kernel's receive stamp of the packet h
// answers to the clock read of the flush that carried h) plus this
// host's, from its kernel's receive stamp of h to now(). Either is 0
// where it is unknown: simulated and in-memory transports, the
// per-packet engine, a virtual Clock.
func (r *Rpc) hostDelay(h *wire.Header) sim.Time {
	d := sim.Time(h.EndpointDelay) * sim.Microsecond
	if r.rxAt != 0 {
		d += r.now() - r.rxAt
	}
	return d
}

// updateRTO folds one RTT sample into the session's Jacobson/Karels
// estimator: srtt <- srtt + (rtt-srtt)/8, rttvar <- rttvar +
// (|rtt-srtt|-rttvar)/4, rto = srtt + 4*rttvar clamped to
// [Config.RTOMin, Config.RTOMax]. The clamp floor keeps sub-RTT jitter
// from triggering spurious go-back-N; the ceiling bounds recovery
// latency on paths whose variance blew the estimate up.
func (r *Rpc) updateRTO(s *Session, rtt sim.Time) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := rtt - s.srtt
		if d < 0 {
			d = -d
		}
		s.rttvar += (d - s.rttvar) / 4
		s.srtt += (rtt - s.srtt) / 8
	}
	rto := s.srtt + 4*s.rttvar
	if rto < r.cfg.RTOMin {
		rto = r.cfg.RTOMin
	}
	if rto > r.cfg.RTOMax {
		rto = r.cfg.RTOMax
	}
	s.rto = rto
	r.Stats.RTOCur = uint64(rto)
	if r.Stats.RTOMinSeen == 0 || uint64(rto) < r.Stats.RTOMinSeen {
		r.Stats.RTOMinSeen = uint64(rto)
	}
	if uint64(rto) > r.Stats.RTOMaxSeen {
		r.Stats.RTOMaxSeen = uint64(rto)
	}
}

// backoffRTO scales a base timeout by 2^n, capped at 2^rtoBackoffCap:
// successive retransmits (or rejects) of the same request wait
// exponentially longer, so a dead or overloaded peer sees a trickle
// instead of an RTO storm.
func backoffRTO(base sim.Time, n int) sim.Time {
	if n > rtoBackoffCap {
		n = rtoBackoffCap
	}
	return base << uint(n)
}

// kickSession gives freed credits to other slots of the session.
func (r *Rpc) kickSession(s *Session) {
	if s.credits <= 0 {
		return
	}
	for i := range s.slots {
		if s.credits <= 0 {
			return
		}
		if s.slots[i].busy {
			r.trySendSlot(s, i)
		}
	}
}

// trySendSlot transmits as many packets as the slot needs and the
// session's credits allow. A slot parked in reject backoff (retryAt)
// transmits nothing until the rtoScan un-parks it.
func (r *Rpc) trySendSlot(s *Session, idx int) {
	ss := &s.slots[idx]
	if !ss.busy || s.failed || ss.retryAt != 0 {
		return
	}
	for ss.reqSent < ss.numReqPkts && s.credits > 0 {
		r.ccSend(s, idx, kindReqData, ss.reqSent)
		ss.reqSent++
		s.credits--
		ss.inFlight++
		ss.lastProgress = r.now()
	}
	if ss.respNumPkts > 1 {
		for ss.rfrSent < ss.respNumPkts && s.credits > 0 {
			r.ccSend(s, idx, kindRFR, ss.rfrSent)
			ss.rfrSent++
			s.credits--
			ss.inFlight++
			ss.lastProgress = r.now()
		}
	}
}

// ccSend routes one client→server packet through congestion control:
// direct transmission in the common (uncongested) case, or the
// Carousel wheel when paced (§5.2.2 optimization 2).
func (r *Rpc) ccSend(s *Session, idx int, kind wireKind, pktNum int) {
	if r.opts.DisableCC || s.cc.timely == nil {
		r.txClientPkt(s, idx, kind, pktNum)
		return
	}
	tl := s.cc.timely
	if !r.opts.DisableRateLimiterBypass && tl.Uncongested() && s.cc.inWheel == 0 {
		r.txClientPkt(s, idx, kind, pktNum)
		return
	}
	// Paced path: schedule on the wheel at the session's next credit
	// of rate. A request-data packet is charged the bytes it puts on the
	// wire (eRPC divides the packet's own size by the rate), so a 32 B
	// request waits 48 B of rate, not an MTU's worth. An RFR is charged
	// an MTU although it is 16 B itself: it releases one MTU-sized
	// response packet from the server, so pacing RFRs at MTU granularity
	// is what paces the reverse flow.
	now := r.now()
	t := s.cc.nextTx
	if t < now {
		t = now
	}
	ss := &s.slots[idx]
	wireBytes := r.tr.MTU()
	if kind == kindReqData {
		wireBytes = wire.HeaderSize + wire.PktDataLen(uint32(ss.req.MsgSize()), r.dataPerPkt, pktNum)
	}
	s.cc.nextTx = t + sim.Time(float64(wireBytes)*1e9/tl.Rate())
	r.Stats.PktsPaced++
	r.charge(r.cost.CarouselOp)
	r.wheel.Insert(t, wheelEntry{sess: s, slotIdx: idx, reqNum: ss.reqNum, kind: kind, pktNum: pktNum})
	s.cc.inWheel++
}

// pollWheel transmits rate-limited packets that are due. It polls an
// empty wheel too: that is what keeps the wheel's head at the present
// for the next Insert.
func (r *Rpc) pollWheel() {
	r.wheel.PollUntil(r.now(), func(_ sim.Time, e wheelEntry) {
		e.sess.cc.inWheel--
		ss := &e.sess.slots[e.slotIdx]
		if e.sess.failed || !ss.busy || ss.reqNum != e.reqNum || ss.retryAt != 0 {
			return // orphaned entry: slot finished, parked in reject
			// backoff, or session failed
		}
		r.txClientPkt(e.sess, e.slotIdx, e.kind, e.pktNum)
	})
}

// txClientPkt transmits one client→server packet immediately and
// records its timestamp for RTT measurement.
func (r *Rpc) txClientPkt(s *Session, idx int, kind wireKind, pktNum int) {
	ss := &s.slots[idx]
	ts := r.txStamp(r.now())
	switch kind {
	case kindReqData:
		if pktNum < len(ss.reqTxTimes) {
			ss.reqTxTimes[pktNum] = ts
		}
		h := wire.Header{
			PktType:    wire.PktReq,
			ReqType:    ss.reqType,
			MsgSize:    uint32(ss.req.MsgSize()),
			DstSession: s.num,
			PktNum:     uint16(pktNum),
			ReqNum:     ss.reqNum,
		}
		if err := h.Encode(ss.req.PktHeader(pktNum)); err != nil {
			panic("erpc: header encode: " + err.Error())
		}
		r.charge(r.cost.PktTx)
		r.sendPkt(s.remote, ss.req, pktNum, 0)
	case kindRFR:
		if pktNum < len(ss.respTxTimes) {
			ss.respTxTimes[pktNum] = ts
		}
		r.charge(r.cost.PktTx)
		r.sendCtrl(s.remote, wire.Header{
			PktType:    wire.PktRFR,
			ReqType:    ss.reqType,
			MsgSize:    uint32(ss.req.MsgSize()),
			DstSession: s.num,
			PktNum:     uint16(pktNum),
			ReqNum:     ss.reqNum,
		}, 0)
	}
	r.sessionQueued(s)
}

// sendCtrl transmits a header-only packet (CR, RFR, ping, pong —
// the paper's "tiny 16 B packets"), encoded in the TX arena. rxAt is as
// for appendTX.
func (r *Rpc) sendCtrl(dst transport.Addr, h wire.Header, rxAt sim.Time) {
	buf := r.txArena[r.txOff : r.txOff+wire.HeaderSize]
	if err := h.Encode(buf); err != nil {
		panic("erpc: header encode: " + err.Error())
	}
	r.appendTX(dst, buf, rxAt)
}

// sendPkt appends packet k of msgbuf buf to the TX batch, copied into
// the TX arena: the batch owns its bytes, so the msgbuf returns to its
// owner the moment the call does. rxAt is as for appendTX.
func (r *Rpc) sendPkt(dst transport.Addr, buf *msgbuf.Buf, k int, rxAt sim.Time) {
	r.appendTX(dst, buf.Frame(k, r.txArena[r.txOff:]), rxAt)
}

// txReply is a TX-batch entry that answers a packet the kernel received
// at rxAt (on the loop clock): a CR or response whose endpoint delay the
// flush writes into the encoded header.
type txReply struct {
	at   int // index in txBatch
	rxAt sim.Time
}

// appendTX queues one frame, built at the free end of the TX arena, on
// the TX batch (the paper's TX DMA queue), which is flushed with one
// SendBurst per event-loop iteration (§4.2.2's single DMA-queue flush),
// or earlier if it reaches a burst (r.burst). A frame is at most an MTU
// and the arena holds a burst of them, so the batch never outgrows it.
// rxAt, when not 0, is the kernel receive time of the packet that a CR
// or response frame answers: the flush reports the time since as the
// frame's endpoint delay (stampReplies).
func (r *Rpc) appendTX(dst transport.Addr, data []byte, rxAt sim.Time) {
	r.Stats.PktsTx++
	r.Stats.BytesTx += uint64(len(data))
	if rxAt != 0 {
		r.txReplies = append(r.txReplies, txReply{at: len(r.txBatch), rxAt: rxAt})
	}
	r.txBatch = append(r.txBatch, transport.Frame{Data: data, Addr: dst})
	r.txOff += len(data)
	r.txQueued()
	if len(r.txBatch) >= r.burst {
		r.flushTX()
	}
}

// sessionQueued counts a frame of s just queued on the TX batch and
// flushes the batch once it holds half of s's credit window. A session
// has at most DefaultCredits packets in flight, and the paper's burst
// (16 of 32 credits) never let one flush carry more than half of them.
// The socket burst would carry a whole window: its replies then wait in
// one long send syscall, time no stamp sees, and Timely takes it for
// congestion (EXPERIMENTS.md, "A doorbell is a syscall"). Sessions that
// share a flush, as many small RPCs do, stay under the bound.
func (r *Rpc) sessionQueued(s *Session) {
	if len(r.txBatch) == 0 {
		return // the frame left with a full batch
	}
	if s.txSince != r.Stats.TxBursts {
		s.txSince, s.txQueued = r.Stats.TxBursts, 0
	}
	if s.txQueued++; s.txQueued >= DefaultCredits/2 {
		r.flushTX()
	}
}

// flushTX transmits the accumulated TX batch — how is the driver's
// business: one SendBurst (one doorbell) over a real transport, a
// departure event per frame in simulated time — and empties it, arena
// and all: the driver is done with the batch's bytes when transmit
// returns.
func (r *Rpc) flushTX() {
	if len(r.txBatch) == 0 {
		return
	}
	r.Stats.TxBursts++
	if len(r.txReplies) > 0 {
		r.stampReplies()
	}
	r.drv.transmit()
	r.txBatch = r.txBatch[:0]
	r.txOff = 0
}

// stampReplies writes into each CR and response of the batch that
// answers a stamped packet how long this host has held that packet:
// from its kernel receive stamp to one clock read, taken here, just
// before the batch goes to the transport. The reply was encoded earlier
// in the pass, and the rest of the pass — other packets, handlers, a
// preemption of the loop — is host delay the client must not take for
// congestion. Only the delay bits of the batch's copy change. A batch
// without such a reply, and so every simulated one (no stamps), reads
// no clock.
func (r *Rpc) stampReplies() {
	now := r.clock.Now()
	for _, e := range r.txReplies {
		us := min(max(now-e.rxAt, 0)/sim.Microsecond, wire.MaxEndpointDelay)
		wire.PatchEndpointDelay(r.txBatch[e.at].Data, uint16(us))
	}
	r.txReplies = r.txReplies[:0]
}

// rtoScan checks outstanding requests for retransmission timeouts and
// performs go-back-N rollback (§5.3), with three fault-tolerance
// layers on top of the paper's fixed-RTO scan: the timeout is the
// session's adaptive estimate, successive timeouts of one request back
// off exponentially, and Config.MaxRetransmits consecutive timeouts
// without progress fail the request with ErrTimeout instead of
// retrying forever. The scan also un-parks slots whose reject-backoff
// delay (onReject) has expired.
func (r *Rpc) rtoScan() {
	now := r.now()
	for _, s := range r.sessions {
		if s.failed {
			continue
		}
		base := s.rto
		if base == 0 {
			base = r.cfg.RTO
		}
		for i := range s.slots {
			ss := &s.slots[i]
			if !ss.busy {
				continue
			}
			if ss.retryAt != 0 {
				if now >= ss.retryAt {
					ss.retryAt = 0
					ss.lastProgress = now
					r.trySendSlot(s, i)
				}
				continue
			}
			if ss.inFlight == 0 || now-ss.lastProgress <= backoffRTO(base, ss.consecRTO) {
				continue
			}
			if ss.consecRTO >= r.cfg.MaxRetransmits {
				r.Stats.BudgetExhausted++
				r.failSlot(s, i, ErrTimeout)
				continue
			}
			r.rollback(s, i)
		}
	}
}

// onReject handles an explicit server rejection (overload shedding or
// drain). Instead of letting go-back-N hammer a server that told us it
// is shedding load, the slot rewinds to retransmit from scratch,
// returns its credits to the session, and parks for an exponentially
// growing delay; Config.MaxRejects consecutive rejections fail the
// request with ErrServerOverloaded.
func (r *Rpc) onReject(h *wire.Header) {
	s, ss, idx := r.clientSlot(h)
	if s == nil {
		return
	}
	r.Stats.RejectsRx++
	if ss.retryAt != 0 {
		// A multi-packet request draws one reject per transmitted
		// packet; the slot is already parked.
		return
	}
	// The server admitted nothing: reclaim every in-flight credit and
	// rewind to the start of the request phase for the retry.
	s.credits += ss.inFlight
	ss.inFlight = 0
	ss.reqSent = 0
	ss.reqAcked = 0
	ss.respNumPkts = 0
	ss.respRcvd = 0
	ss.rfrSent = 0
	ss.rejects++
	if ss.rejects > r.cfg.MaxRejects {
		r.Stats.OverloadFails++
		r.failSlot(s, idx, ErrServerOverloaded)
		r.kickSession(s)
		return
	}
	base := s.rto
	if base == 0 {
		base = r.cfg.RTO
	}
	ss.lastProgress = r.now()
	ss.retryAt = r.now() + backoffRTO(base, ss.rejects-1)
	r.kickSession(s) // the freed credits may serve other slots
}

// rollback reclaims credits, flushes the TX DMA queue (§4.2.2) and
// retransmits from the last acknowledged packet.
func (r *Rpc) rollback(s *Session, idx int) {
	ss := &s.slots[idx]
	r.Stats.Retransmits++
	r.Stats.DMAFlushes++
	ss.retransmits++
	ss.consecRTO++
	// Flush the TX DMA queue before the slot rewinds (the ≈2 µs flush
	// that buys unsignaled transmission its 25% speedup the rest of the
	// time): what the batch holds leaves ahead of the retransmission.
	r.charge(r.cost.DMAFlush)
	r.flushTX()
	s.credits += ss.inFlight
	ss.inFlight = 0
	if ss.respNumPkts > 0 && ss.respRcvd >= 1 {
		// Response phase: re-request from the first missing packet.
		ss.rfrSent = ss.respRcvd
	} else {
		// Request phase: go back to the last acknowledged packet.
		ss.reqSent = ss.reqAcked
	}
	ss.lastProgress = r.now()
	r.trySendSlot(s, idx)
}
