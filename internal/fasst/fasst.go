// Package fasst reimplements the FaSST RPC baseline that Figure 4 of
// the eRPC paper compares against (Kalia et al., OSDI 2016). FaSST
// RPCs are highly specialized: single-packet messages only, a lossless
// fabric assumed (no retransmission, no congestion control), fixed
// request windows, and batched doorbells that amortize per-batch NIC
// costs over B requests. This specialization is exactly why FaSST is
// slightly faster than eRPC per core — and why it handles none of
// eRPC's generality (large messages, loss, congestion, long handlers).
//
// The implementation mirrors internal/core's simulation structure
// (one simulated CPU per endpoint, cost charged per operation) but
// with FaSST's simpler protocol and cost profile, calibrated to the
// paper's reported FaSST rates (3.9/4.4/4.8 Mrps on CX3 for
// B=3/5/11).
package fasst

import (
	"encoding/binary"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Costs is FaSST's per-operation CPU cost profile. The combined
// client+server cost per RPC is PerRPC + PerBatch/B: fitting the
// paper's CX3 numbers (CPU scale 1.3) gives PerRPC ≈ 146 ns and
// PerBatch ≈ 153 ns.
type Costs struct {
	PerRPC   sim.Time // fixed client+server cost per RPC
	PerBatch sim.Time // per-batch cost (doorbells, CQ polls), amortized over B
}

// DefaultCosts returns the calibrated FaSST cost profile.
func DefaultCosts() Costs { return Costs{PerRPC: 146, PerBatch: 153} }

// Handler processes a request payload and returns the response
// payload. req aliases the RX frame and is valid only during the call.
type Handler func(req []byte) []byte

const hdrSize = 12 // reqID(8) + flags(1) + srcPort... packed below

// Rpc is a FaSST-style RPC endpoint. Single-packet requests and
// responses only; no loss handling (drops hang the request, exactly
// like FaSST on a lossy fabric).
type Rpc struct {
	tr      transport.Transport
	sched   *sim.Scheduler
	costs   Costs
	scale   float64
	handler Handler

	cursor    sim.Time
	busyUntil sim.Time
	runSched  bool

	nextID  uint64
	pending map[uint64]func([]byte)

	// Completed counts finished RPCs at this client.
	Completed uint64
}

// New creates a FaSST endpoint on a simulated transport.
func New(tr transport.Transport, sched *sim.Scheduler, costs Costs, cpuScale float64, h Handler) *Rpc {
	r := &Rpc{
		tr:      tr,
		sched:   sched,
		costs:   costs,
		scale:   cpuScale,
		handler: h,
		pending: map[uint64]func([]byte){},
	}
	tr.SetWake(r.scheduleRun)
	return r
}

// LocalAddr returns the endpoint's address.
func (r *Rpc) LocalAddr() transport.Addr { return r.tr.LocalAddr() }

func (r *Rpc) charge(d sim.Time) { r.cursor += sim.Time(float64(d) * r.scale) }

func (r *Rpc) scheduleRun() {
	if r.runSched {
		return
	}
	r.runSched = true
	at := r.sched.Now()
	if r.busyUntil > at {
		at = r.busyUntil
	}
	r.sched.At(at, r.run)
}

func (r *Rpc) run() {
	r.runSched = false
	now := r.sched.Now()
	if now < r.busyUntil {
		r.scheduleRun()
		return
	}
	r.cursor = now
	var rx [1]transport.Frame
	for r.tr.RecvBurst(rx[:]) == 1 {
		r.process(rx[0].Data, rx[0].Addr)
		rx[0].Release()
	}
	r.busyUntil = r.cursor
}

// SendBatch issues a batch of requests in one doorbell: the per-batch
// cost is charged once (FaSST's key amortization). The response slice
// passed to cont aliases the RX frame and is valid only during the call.
func (r *Rpc) SendBatch(dsts []transport.Addr, payload []byte, cont func([]byte)) {
	if r.busyUntil > r.cursor {
		r.cursor = r.busyUntil
	}
	if n := r.sched.Now(); n > r.cursor {
		r.cursor = n
	}
	r.charge(r.costs.PerBatch)
	for _, dst := range dsts {
		id := r.nextID
		r.nextID++
		r.pending[id] = cont
		// Half the fixed per-RPC cost is client-side.
		r.charge(r.costs.PerRPC / 4) // TX half of client side
		r.send(dst, id, 0, payload)
	}
	if r.cursor > r.busyUntil {
		r.busyUntil = r.cursor
	}
}

func (r *Rpc) send(dst transport.Addr, id uint64, flags byte, payload []byte) {
	buf := make([]byte, hdrSize+len(payload))
	binary.LittleEndian.PutUint64(buf, id)
	buf[8] = flags
	copy(buf[hdrSize:], payload)
	r.sched.At(r.cursor, func() { r.tr.SendBurst([]transport.Frame{{Data: buf, Addr: dst}}) })
}

func (r *Rpc) process(frame []byte, from transport.Addr) {
	if len(frame) < hdrSize {
		return
	}
	id := binary.LittleEndian.Uint64(frame)
	flags := frame[8]
	payload := frame[hdrSize:]
	if flags == 0 {
		// Request: run the handler inline (FaSST handlers are short)
		// and respond. Server-side share of the per-RPC cost.
		r.charge(r.costs.PerRPC / 2)
		resp := r.handler(payload)
		r.send(from, id, 1, resp)
		return
	}
	// Response.
	cont, ok := r.pending[id]
	if !ok {
		return
	}
	delete(r.pending, id)
	r.charge(r.costs.PerRPC / 4) // RX half of client side
	r.Completed++
	if cont != nil {
		cont(payload)
	}
}
