// Package simnet is a discrete-event simulator of a datacenter network
// fabric. It substitutes for the paper's measurement clusters (Table
// 1): hosts with NICs, two-layer ToR/spine topologies, links with
// bandwidth and propagation delay, and cut-through switches with a
// *shared dynamic buffer pool* — the property ("switch buffer ≫ BDP",
// paper §2.1) that eRPC's BDP flow control relies on.
//
// The fabric implements transport.Transport for each attached
// endpoint, so the eRPC core runs unmodified on it. Everything
// executes on one sim.Scheduler goroutine; runs are deterministic for
// a given seed.
//
// The datapath is burst-based and allocation-free in steady state:
// packet payloads live in MTU-sized buffers on the fabric's free list,
// packet descriptors (simPkt) recycle through another, and every hop is
// scheduled with sim.Scheduler.AtCall — a predeclared callback plus the
// recycled descriptor — instead of a per-hop closure. An endpoint lends
// the buffers of an RX burst until its next RecvBurst, which re-posts
// them to the free list in bulk, the way UDP re-uses its receive
// windows and the paper's dispatch thread re-posts its RX descriptors.
package simnet

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Topology describes the switch fabric shape.
type Topology struct {
	NumToRs     int // top-of-rack switches
	NodesPerToR int // hosts per ToR
	NumSpines   int // spine switches; 0 means a single-switch network (NumToRs must be 1)
}

// Nodes returns the host capacity of the topology.
func (t Topology) Nodes() int { return t.NumToRs * t.NodesPerToR }

func (t Topology) validate() error {
	if t.NumToRs <= 0 || t.NodesPerToR <= 0 {
		return fmt.Errorf("simnet: bad topology %+v", t)
	}
	if t.NumToRs > 1 && t.NumSpines <= 0 {
		return fmt.Errorf("simnet: multi-ToR topology needs spines: %+v", t)
	}
	return nil
}

// Config configures a Fabric.
type Config struct {
	Profile  Profile
	Topology Topology
	// LossRate injects uniform random packet loss (Table 4).
	LossRate float64
	// ReorderRate delays a packet by an extra random amount, causing
	// reordering (eRPC treats reordered packets as lost, §5.3).
	ReorderRate float64
	// RQCap bounds each endpoint's receive queue in packets; 0 means
	// DefaultRQCap. Overflow drops model an empty NIC RQ (§4.1.1).
	RQCap int
	// Jitter adds uniform [0, Jitter) delivery-time noise per packet,
	// modeling the µs-scale RTT variation of loaded real networks
	// (NIC batching, PCIe and scheduling jitter). Timely's gradient
	// detector requires this noise to regulate a saturated queue; the
	// congestion-control experiments enable it, latency-calibration
	// experiments leave it at 0.
	Jitter sim.Time
}

// DefaultRQCap is the default per-endpoint receive-queue capacity,
// sized like the multi-packet RQs of §4.1.1 / Appendix A.
const DefaultRQCap = 8192

// Stats counts fabric-wide events.
type Stats struct {
	Delivered      uint64
	BytesDelivered uint64
	DroppedBuffer  uint64 // switch shared-buffer overflow
	DroppedLoss    uint64 // injected loss
	DroppedRQ      uint64 // endpoint receive-queue overflow
	Reordered      uint64
}

// Fabric is the simulated network.
type Fabric struct {
	sched *sim.Scheduler
	cfg   Config
	tors  []*swtch
	spine []*swtch
	nics  []*nic

	bufFree [][]byte  // MTU-sized payload buffers
	pktFree []*simPkt // descriptor free list

	// Predeclared AtCall callbacks: one bound method value each,
	// created once at New, so scheduling a hop allocates nothing.
	atToRFn    func(any)
	atSpineFn  func(any)
	atDstNICFn func(any)
	deliverFn  func(any)
	releaseFn  func(any)

	Stats Stats
}

// New builds a fabric on the given scheduler.
func New(sched *sim.Scheduler, cfg Config) (*Fabric, error) {
	if err := cfg.Topology.validate(); err != nil {
		return nil, err
	}
	if err := cfg.Profile.validate(); err != nil {
		return nil, err
	}
	if cfg.RQCap == 0 {
		cfg.RQCap = DefaultRQCap
	}
	f := &Fabric{sched: sched, cfg: cfg}
	f.atToRFn = func(a any) { f.atToR(a.(*simPkt)) }
	f.atSpineFn = func(a any) { f.atSpine(a.(*simPkt)) }
	f.atDstNICFn = func(a any) { f.atDstNIC(a.(*simPkt)) }
	f.deliverFn = func(a any) { f.deliver(a.(*simPkt)) }
	f.releaseFn = func(a any) { releaseBuf(a.(*simPkt)) }
	for i := 0; i < cfg.Topology.NumToRs; i++ {
		// ToR ports: one downlink per node + one uplink per spine.
		f.tors = append(f.tors, newSwitch(cfg.Topology.NodesPerToR+cfg.Topology.NumSpines, cfg.Profile))
	}
	for i := 0; i < cfg.Topology.NumSpines; i++ {
		// Spine ports: one per ToR.
		f.spine = append(f.spine, newSwitch(cfg.Topology.NumToRs, cfg.Profile))
	}
	f.nics = make([]*nic, cfg.Topology.Nodes())
	for i := range f.nics {
		f.nics[i] = &nic{}
	}
	return f, nil
}

// Scheduler returns the fabric's scheduler.
func (f *Fabric) Scheduler() *sim.Scheduler { return f.sched }

// Profile returns the active cluster profile.
func (f *Fabric) Profile() Profile { return f.cfg.Profile }

// AttachEndpoint creates a new endpoint (one per Rpc dispatch thread)
// on the given node and returns its transport.
func (f *Fabric) AttachEndpoint(node int) *Endpoint {
	if node < 0 || node >= len(f.nics) {
		panic(fmt.Sprintf("simnet: node %d out of range [0,%d)", node, len(f.nics)))
	}
	n := f.nics[node]
	ep := &Endpoint{
		fab:  f,
		addr: transport.Addr{Node: uint16(node), Port: uint16(len(n.endpoints))},
	}
	n.endpoints = append(n.endpoints, ep)
	return ep
}

// nic models a host NIC: endpoints share one egress link.
type nic struct {
	txFree    sim.Time // time the egress link becomes free
	endpoints []*Endpoint
}

// swtch is a cut-through switch with a shared dynamic buffer.
type swtch struct {
	prof  Profile
	used  int // shared buffer bytes in use
	ports []port
}

type port struct {
	free   sim.Time // time the egress link becomes free
	queued int      // bytes queued on this port
}

func newSwitch(nports int, prof Profile) *swtch {
	return &swtch{prof: prof, ports: make([]port, nports)}
}

// admit applies the dynamic-threshold admission rule: a port may queue
// up to alpha × (free shared buffer). Returns false to drop.
func (s *swtch) admit(portIdx, bytes int) bool {
	if s.prof.Lossless {
		return true // PFC-style lossless fabric: sender paced, never dropped
	}
	p := &s.ports[portIdx]
	free := s.prof.SwitchBufBytes - s.used
	if float64(p.queued+bytes) > s.prof.DTAlpha*float64(free) {
		return false
	}
	return true
}

func ser(bytes int, gbps float64) sim.Time {
	return sim.Time(float64(bytes) * 8 / gbps)
}

// wireBytes is the on-the-wire size of a frame including layer-2/3/4
// overhead (the paper counts a 32 B RPC as a 92 B packet).
func (f *Fabric) wireBytes(frameLen int) int {
	return frameLen + f.cfg.Profile.WireOverhead
}

// simPkt is a recycled packet descriptor. While a packet is in flight it
// carries the hop state its pending events need: hop is the ToR/spine
// index the next arrival callback runs at, and relSw/relPort/relWB
// describe the egress-buffer occupancy to release when the packet
// finishes leaving its current switch port. A packet has at most one
// pending release at a time: the release (at link departure) always
// fires before the next hop's arrival (departure + propagation delay,
// with FIFO ordering on ties), which is what installs the next one.
type simPkt struct {
	buf  []byte
	from transport.Addr
	to   transport.Addr
	hash uint32

	hop     int // next ToR or spine index
	relSw   *swtch
	relPort int
	relWB   int
}

func (f *Fabric) getPkt() *simPkt {
	if n := len(f.pktFree); n > 0 {
		pkt := f.pktFree[n-1]
		f.pktFree[n-1] = nil
		f.pktFree = f.pktFree[:n-1]
		return pkt
	}
	return &simPkt{}
}

// freePkt recycles a descriptor whose payload buffer has already been
// handed off or returned to the free list.
func (f *Fabric) freePkt(pkt *simPkt) {
	pkt.buf = nil
	pkt.relSw = nil
	f.pktFree = append(f.pktFree, pkt)
}

// getBuf returns an empty payload buffer with room for an MTU.
func (f *Fabric) getBuf() []byte {
	if n := len(f.bufFree); n > 0 {
		b := f.bufFree[n-1]
		f.bufFree[n-1] = nil
		f.bufFree = f.bufFree[:n-1]
		return b
	}
	return make([]byte, 0, f.cfg.Profile.MTU)
}

// putBuf returns a payload buffer to the free list.
func (f *Fabric) putBuf(b []byte) { f.bufFree = append(f.bufFree, b[:0]) }

// dropPkt recycles a descriptor and its payload (a packet lost in the
// fabric).
func (f *Fabric) dropPkt(pkt *simPkt) {
	f.putBuf(pkt.buf)
	f.freePkt(pkt)
}

// releaseBuf is the AtCall callback that releases a packet's switch
// egress-buffer occupancy once it has finished leaving the port.
func releaseBuf(pkt *simPkt) {
	pkt.relSw.used -= pkt.relWB
	pkt.relSw.ports[pkt.relPort].queued -= pkt.relWB
	pkt.relSw = nil
}

// send launches a frame into the fabric from src. The whole fabric
// executes on the one scheduler goroutine, which owns the free lists.
func (f *Fabric) send(src *Endpoint, dst transport.Addr, frame []byte) {
	prof := f.cfg.Profile
	if len(frame) > prof.MTU {
		return // oversize frames are dropped, like a real NIC
	}
	if int(dst.Node) >= len(f.nics) {
		return // no such host: dropped, like a frame to an unknown MAC
	}
	pkt := f.getPkt()
	pkt.buf = append(f.getBuf(), frame...)
	pkt.from = src.addr
	pkt.to = dst
	pkt.hash = transport.FlowHash(src.addr, dst)

	n := f.nics[src.addr.Node]
	now := f.sched.Now()
	wb := f.wireBytes(len(frame))
	start := now + prof.NICTxDelay
	if n.txFree > start {
		start = n.txFree
	}
	dep := start + ser(wb, prof.LinkGbps)
	n.txFree = dep
	arrive := dep + prof.PropDelay

	if int(dst.Node) == int(src.addr.Node) {
		// Loopback through the NIC without touching the fabric.
		f.sched.AtCall(dep+prof.NICRxDelay, f.deliverFn, pkt)
		return
	}
	pkt.hop = int(src.addr.Node) / f.cfg.Topology.NodesPerToR
	f.sched.AtCall(arrive, f.atToRFn, pkt)
}

// atToR handles a packet arriving at the ToR switch pkt.hop (from a
// host or from a spine).
func (f *Fabric) atToR(pkt *simPkt) {
	topo := f.cfg.Topology
	torIdx := pkt.hop
	dstToR := int(pkt.to.Node) / topo.NodesPerToR
	if dstToR == torIdx {
		// Egress on the downlink to the destination node.
		local := int(pkt.to.Node) % topo.NodesPerToR
		f.switchForward(f.tors[torIdx], local, f.cfg.Profile.LinkGbps, pkt, f.atDstNICFn, 0)
		return
	}
	// Egress on an ECMP-selected uplink to a spine.
	spineIdx := int(pkt.hash) % topo.NumSpines
	uplinkPort := topo.NodesPerToR + spineIdx
	f.switchForward(f.tors[torIdx], uplinkPort, f.cfg.Profile.UplinkGbps, pkt, f.atSpineFn, spineIdx)
}

// atSpine handles a packet arriving at the spine switch pkt.hop.
func (f *Fabric) atSpine(pkt *simPkt) {
	dstToR := int(pkt.to.Node) / f.cfg.Topology.NodesPerToR
	f.switchForward(f.spine[pkt.hop], dstToR, f.cfg.Profile.UplinkGbps, pkt, f.atToRFn, dstToR)
}

// switchForward enqueues pkt on the given egress port and schedules
// its arrival at the next hop (the next callback, running at nextHop).
func (f *Fabric) switchForward(s *swtch, portIdx int, gbps float64, pkt *simPkt, next func(any), nextHop int) {
	wb := f.wireBytes(len(pkt.buf))
	if !s.admit(portIdx, wb) {
		f.Stats.DroppedBuffer++
		f.dropPkt(pkt)
		return
	}
	prof := f.cfg.Profile
	now := f.sched.Now()
	p := &s.ports[portIdx]
	s.used += wb
	p.queued += wb
	start := now + prof.SwitchLatency
	if p.free > start {
		start = p.free
	}
	dep := start + ser(wb, gbps)
	p.free = dep
	// Buffer occupancy is released when the packet finishes leaving
	// the egress port; the packet reaches the next hop one propagation
	// delay later.
	pkt.relSw, pkt.relPort, pkt.relWB = s, portIdx, wb
	f.sched.AtCall(dep, f.releaseFn, pkt)
	pkt.hop = nextHop
	f.sched.AtCall(dep+prof.PropDelay, next, pkt)
}

// atDstNIC applies loss/reorder injection and delivers to the endpoint.
func (f *Fabric) atDstNIC(pkt *simPkt) {
	rng := f.sched.Rand()
	if f.cfg.LossRate > 0 && rng.Float64() < f.cfg.LossRate {
		f.Stats.DroppedLoss++
		f.dropPkt(pkt)
		return
	}
	at := f.sched.Now() + f.cfg.Profile.NICRxDelay
	if f.cfg.Jitter > 0 {
		at += sim.Time(rng.Int63n(int64(f.cfg.Jitter)))
		// Jitter must not reorder packets within a flow: datacenter
		// ECMP preserves intra-flow ordering (paper §5.3). Clamp each
		// delivery to after the previous delivery from the same
		// source.
		if n := f.nics[pkt.to.Node]; int(pkt.to.Port) < len(n.endpoints) {
			ep := n.endpoints[pkt.to.Port]
			if ep.lastArrival == nil {
				ep.lastArrival = map[transport.Addr]sim.Time{}
			}
			if last := ep.lastArrival[pkt.from]; at <= last {
				at = last + 1
			}
			ep.lastArrival[pkt.from] = at
		}
	}
	if f.cfg.ReorderRate > 0 && rng.Float64() < f.cfg.ReorderRate {
		f.Stats.Reordered++
		at += sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
	}
	f.sched.AtCall(at, f.deliverFn, pkt)
}

// deliver appends the packet to the destination endpoint's receive
// queue. The payload buffer moves to the queue (and is lent to the
// consumer by RecvBurst); the descriptor is recycled immediately.
func (f *Fabric) deliver(pkt *simPkt) {
	n := f.nics[pkt.to.Node]
	if int(pkt.to.Port) >= len(n.endpoints) {
		f.dropPkt(pkt) // no such endpoint: silently dropped
		return
	}
	ep := n.endpoints[pkt.to.Port]
	if ep.closed {
		f.dropPkt(pkt)
		return
	}
	if len(ep.rq) >= f.cfg.RQCap {
		f.Stats.DroppedRQ++
		f.dropPkt(pkt)
		return
	}
	f.Stats.Delivered++
	f.Stats.BytesDelivered += uint64(len(pkt.buf))
	wasEmpty := len(ep.rq) == 0
	ep.rq = append(ep.rq, transport.Frame{Data: pkt.buf, Addr: pkt.from})
	f.freePkt(pkt)
	if wasEmpty && ep.wake != nil {
		ep.wake()
	}
}

// Endpoint is one attachment point on the fabric; it implements
// transport.Transport.
type Endpoint struct {
	fab         *Fabric
	addr        transport.Addr
	rq          []transport.Frame
	rqHead      int
	lent        [][]byte // buffers of the last burst, re-posted by the next RecvBurst
	wake        func()
	closed      bool
	lastArrival map[transport.Addr]sim.Time // per-source ordering under jitter
}

var _ transport.Transport = (*Endpoint)(nil)

// MTU implements transport.Transport.
func (e *Endpoint) MTU() int { return e.fab.cfg.Profile.MTU }

// LocalAddr implements transport.Transport.
func (e *Endpoint) LocalAddr() transport.Addr { return e.addr }

// SendBurst implements transport.Transport. The NIC egress link
// (nic.txFree) serializes the burst's departure times back to back —
// the simulated analogue of a DMA queue accepting a batch with one
// doorbell.
func (e *Endpoint) SendBurst(frames []transport.Frame) {
	if e.closed {
		return
	}
	for i := range frames {
		e.fab.send(e, frames[i].Addr, frames[i].Data)
	}
}

// RecvBurst implements transport.Transport: the whole batch queued at
// virtual "now" is handed over in one call (batch delivery per wake).
// The frames' buffers are lent until the next RecvBurst, which first
// returns the previous burst's buffers to the fabric's free list.
func (e *Endpoint) RecvBurst(frames []transport.Frame) int {
	e.repost()
	n := copy(frames, e.rq[e.rqHead:])
	for i := range n {
		e.lent = append(e.lent, frames[i].Data)
	}
	clear(e.rq[e.rqHead : e.rqHead+n])
	e.rqHead += n
	if e.rqHead == len(e.rq) {
		e.rq, e.rqHead = e.rq[:0], 0
	}
	return n
}

// repost returns the buffers of the last burst to the free list.
func (e *Endpoint) repost() {
	for i, b := range e.lent {
		e.fab.putBuf(b)
		e.lent[i] = nil
	}
	e.lent = e.lent[:0]
}

// Pending reports queued RX packets.
func (e *Endpoint) Pending() int { return len(e.rq) - e.rqHead }

// SetWake implements transport.Transport.
func (e *Endpoint) SetWake(fn func()) { e.wake = fn }

// Close implements transport.Transport. The last burst's buffers and
// the queued packets' go back to the fabric's free list.
func (e *Endpoint) Close() error {
	e.closed = true
	e.repost()
	for i := e.rqHead; i < len(e.rq); i++ {
		e.fab.putBuf(e.rq[i].Data)
	}
	e.rq = nil
	e.rqHead = 0
	return nil
}
