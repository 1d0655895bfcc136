package core

import (
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/timely"
	"repro/internal/transport"
)

// sessKey identifies a server-mode session: the client endpoint's
// address (node, port) plus the client's session number, packed into
// one integer so that the per-packet lookup hashes a single word.
// Server-mode sessions are created lazily on the first request packet
// of a new session, standing in for eRPC's sockets-based session
// handshake (the transport's static peer table stands in for its
// address exchange).
// Once a handshake assigns server session numbers (ROADMAP item 3),
// the header's number can index a slice instead of this map.
type sessKey uint64

func srvKey(from transport.Addr, num uint16) sessKey {
	return sessKey(from.Node)<<32 | sessKey(from.Port)<<16 | sessKey(num)
}

// node is the client endpoint's node.
func (k sessKey) node() uint16 { return uint16(k >> 32) }

// Session is a one-to-one connection between two Rpc endpoints
// (paper §3.1). The same struct serves client mode (created by
// CreateSession) and server mode (created on demand).
type Session struct {
	rpc      *Rpc
	num      uint16 // client-assigned session number, used on the wire
	remote   transport.Addr
	isClient bool
	failed   bool

	// Client mode.
	credits int // available session credits (starts at DefaultCredits)
	slots   []sslot
	backlog []pendingReq
	cc      ccState
	// needKick: a slot may be waiting for credits. trySendSlot sets it
	// when it stops with packets left, kickSession when it stops before
	// the last slot; kickSession scans the slots only while it is set.
	needKick bool

	// Adaptive RTO state (Jacobson/Karels, fed from the same RTT
	// samples Timely consumes): rto = srtt + 4*rttvar, clamped to
	// [Config.RTOMin, Config.RTOMax]. Zero srtt means no sample yet and
	// the session falls back to Config.RTO.
	srtt   sim.Time
	rttvar sim.Time
	rto    sim.Time

	// The session's share of the unflushed TX batch (sessionQueued):
	// txQueued of its frames, counted since flush number txSince
	// (Stats.TxBursts).
	txSince  uint64
	txQueued int

	// Server mode.
	srvSlots []srvSlot
}

// Remote returns the address of the session's peer endpoint.
func (s *Session) Remote() transport.Addr { return s.remote }

// Credits returns the currently available session credits (client
// mode).
func (s *Session) Credits() int { return s.credits }

// RTO returns the session's current retransmission timeout: the
// adaptive srtt + 4*rttvar estimate once RTT samples exist, clamped to
// the configured bounds, or Config.RTO before the first sample.
func (s *Session) RTO() sim.Time {
	if s.rto != 0 {
		return s.rto
	}
	return s.rpc.cfg.RTO
}

// SRTT returns the session's smoothed RTT estimate (0 before the first
// sample). Exposed for experiments and tests.
func (s *Session) SRTT() sim.Time { return s.srtt }

// CCRate returns Timely's current sending rate in bytes/sec, or 0 when
// congestion control is disabled. Exposed for experiments.
func (s *Session) CCRate() float64 {
	if s.cc.timely == nil {
		return 0
	}
	return s.cc.timely.Rate()
}

type pendingReq struct {
	reqType uint8
	req     *msgbuf.Buf
	resp    *msgbuf.Buf
	cont    func(error)
}

// sslot tracks one outstanding client request (paper §4.3: "a session
// uses an array of slots to track RPC metadata for outstanding
// requests").
type sslot struct {
	busy    bool
	reqNum  uint64
	reqType uint8
	req     *msgbuf.Buf
	resp    *msgbuf.Buf
	cont    func(error)

	numReqPkts int
	reqSent    int // next request packet index to transmit
	reqAcked   int // request packets acknowledged via explicit CRs

	respNumPkts int // 0 until the first response packet reveals the size
	respRcvd    int // response packets received (strictly in order)
	rfrSent     int // next response packet index to request via RFR

	inFlight int // unacknowledged client→server packets (credits held)

	// txTimes[i] is the transmit timestamp of the client→server
	// packet that will be acknowledged by pktNum i: request packets
	// for the request phase, RFRs for the response phase; noStamp until
	// it is sent. (Simulated time starts at 0, a valid stamp.)
	reqTxTimes  []sim.Time
	respTxTimes []sim.Time

	lastProgress sim.Time
	retransmits  int // total go-back-N rollbacks for this request

	// Fault-tolerance state. consecRTO counts timeouts since the last
	// sign of progress; it drives exponential backoff and the
	// MaxRetransmits budget, and any CR/response packet resets it.
	// rejects counts consecutive PktRejects (MaxRejects budget);
	// retryAt, when non-zero, parks the slot until a reject-backoff
	// delay expires (the rtoScan re-arms transmission).
	consecRTO int
	rejects   int
	retryAt   sim.Time
}

// reset prepares the slot for reuse, keeping its reqNum history.
func (ss *sslot) reset() {
	ss.busy = false
	ss.req = nil
	ss.resp = nil
	ss.cont = nil
	ss.numReqPkts = 0
	ss.reqSent = 0
	ss.reqAcked = 0
	ss.respNumPkts = 0
	ss.respRcvd = 0
	ss.rfrSent = 0
	ss.inFlight = 0
	ss.reqTxTimes = ss.reqTxTimes[:0]
	ss.respTxTimes = ss.respTxTimes[:0]
	ss.retransmits = 0
	ss.consecRTO = 0
	ss.rejects = 0
	ss.retryAt = 0
}

// Server-slot states.
const (
	srvIdle = iota
	srvReceiving
	srvProcessing
	srvResponded
)

// srvSlot is the server-side mirror of a client slot. At-most-once
// execution (paper §5.3) hinges on curReqNum: the handler never runs
// twice for the same request number.
type srvSlot struct {
	state     int
	curReqNum uint64
	reqType   uint8
	msgSize   uint32

	numReqPkts  int
	reqPktsRcvd int
	reqBuf      *msgbuf.Buf // nil for zero-copy single-packet requests
	rxAt        sim.Time    // kernel receive time of the request's last packet (see Rpc.rxAt)

	respBuf        *msgbuf.Buf
	respIsPrealloc bool
	respPooled     bool        // respBuf came from the endpoint allocator
	prealloc       *msgbuf.Buf // preallocated MTU-sized response buffer (§4.3)
}

// ccState is the per-session congestion control state: a Timely
// instance plus the pacing cursor used when packets go through the
// rate limiter (paper §5.2). Client-side only; sessions that host only
// server-mode endpoints have no congestion control overhead.
type ccState struct {
	timely  *timely.Timely
	nextTx  sim.Time // earliest time the next paced packet may leave
	inWheel int      // packets of this session queued in the wheel
}

// wheelEntry is a rate-limited packet waiting in the Carousel wheel. It
// names the packet, not its bytes: pollWheel builds the frame when the
// entry is due, and drops an entry whose slot has moved on.
type wheelEntry struct {
	sess    *Session
	slotIdx int
	reqNum  uint64 // guards against slot reuse
	kind    wireKind
	pktNum  int
}

type wireKind uint8

const (
	kindReqData wireKind = iota
	kindRFR
)
