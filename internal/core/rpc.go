// Package core implements eRPC: a general-purpose RPC library for
// datacenter networks (Kalia et al., NSDI 2019). It provides
// asynchronous request/response RPCs with at-most-once semantics on
// top of unreliable datagram transports, using the paper's
// client-driven wire protocol, session credits for BDP flow control,
// go-back-N loss recovery, Timely congestion control with a Carousel
// rate limiter, and the common-case optimizations of §5.2.2.
//
// An Rpc endpoint is one event loop that owns everything it touches
// (§3.1, §4.2): a pass (runOnce) polls the rate limiter, takes one RX
// burst, runs what Post and worker threads handed it, scans for
// timeouts and flushes one TX batch. That loop is the same code in real
// and in simulated time; who runs it is a driver (driver.go), picked
// once in NewRpc from Config.Sched. Over a real transport a goroutine
// runs passes and parks between them, a batch leaves in one SendBurst
// and a RunInWorker handler gets a worker goroutine. Under the
// discrete-event scheduler an event runs a pass when the simulated CPU
// is free, each frame departs when that CPU got to it, and a worker
// handler is an event one handler's cost later. The driver is asked
// once per pass or less. What is asked per packet — the time (now) and
// the CostModel's price of an operation (charge, chargeBytes; see
// costmodel.go) — reads Rpc.cpu, the simulated CPU's cursor, a plain
// field that is nil over a real transport: a test and an add, inlined.
package core

import (
	"sync"
	"time"

	"repro/internal/carousel"
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/timely"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The paper's session geometry, burst and message limit, which no Config
// changes (as in eRPC), and the defaults of the values Config sets.
const (
	DefaultCredits   = 32                  // session credit limit C (§4.3.1; §6.4 uses 32)
	DefaultNumSlots  = 8                   // concurrent requests per session (§4.3); client and server must agree
	DefaultRTO       = 5 * sim.Millisecond // retransmission timeout (§5.2.3)
	DefaultRQSize    = 8192                // receive queue size |RQ| for the session budget
	DefaultMaxMsg    = 8 << 20             // largest request or response (§6.4)
	DefaultBurstSize = 16                  // RX/TX burst of a simulated endpoint (§4.2.1: "RX and TX bursts of up to 16 packets")

	// Adaptive RTO bounds (Jacobson/Karels estimation per session,
	// Appendix B's timeout plane). The floor keeps the estimator from
	// chasing sub-RTT jitter into spurious go-back-N storms — it
	// matches the paper's static 5 ms RTO, so adaptation only ever
	// raises the timeout above the §5.2.3 baseline (host scheduling
	// jitter on a loaded machine routinely exceeds a converged sub-ms
	// estimate). The ceiling (a multiple of the configured base RTO)
	// bounds how long a lossy session can sleep between recovery
	// attempts.
	DefaultRTOMin = DefaultRTO
	// DefaultMaxRetransmits is the budget of *consecutive* timeouts
	// without progress before a request fails with ErrTimeout. Progress
	// (any CR or response packet) resets the count, so lossy-but-live
	// paths retry indefinitely; only a dead or blackholed path exhausts
	// the budget.
	DefaultMaxRetransmits = 32
	// DefaultMaxRejects bounds consecutive explicit server rejections
	// of one request before it fails with ErrServerOverloaded.
	DefaultMaxRejects = 16
	// rtoBackoffCap caps exponential RTO/reject backoff at 2^6 = 64x.
	rtoBackoffCap = 6

	rtoScanInterval = 100 * sim.Microsecond
	// The wheel's horizon (819.2 µs) stays under a millisecond, the
	// shortest sleep a Go timer delivers: the runtime's idle thread waits
	// for timers in epoll_wait, whose timeout is whole milliseconds and
	// rounds up (a 200 µs timer fires after 1.09-1.16 ms, benchmark metric
	// kernel.timer_200us_p50_us). No wheel deadline is ever far enough
	// away for a timer to keep, so park never arms one for a wheel that
	// holds anything.
	wheelSlots = 4096
	wheelGran  = 200 * sim.Nanosecond
	_          = uint(sim.Millisecond - 1 - wheelSlots*wheelGran)
)

// Config configures an Rpc endpoint. The session geometry (credits,
// slots), the burst and the message limit are not in it: they are the
// constants above, so a client and its server always agree on them.
type Config struct {
	// Transport provides unreliable packet I/O. Required.
	Transport transport.Transport
	// Clock supplies timestamps. Required (use sim scheduler or
	// sim.NewWallClock).
	Clock sim.Clock
	// Sched, when non-nil, puts the endpoint in simulation mode: the
	// event loop is driven by scheduler events and operations charge
	// CostModel time.
	Sched *sim.Scheduler
	// Cost is the CPU cost model; zero value means DefaultCostModel.
	Cost CostModel
	// CPUScale multiplies all cost charges (cluster CPU speed); 0
	// means 1.0.
	CPUScale float64
	// RTO is the retransmission timeout used until a session has RTT
	// samples (then the adaptive per-session estimate takes over); 0
	// means DefaultRTO.
	RTO sim.Time
	// RTOMin / RTOMax clamp the adaptive per-session RTO (srtt +
	// 4*rttvar, Jacobson-style). Zero means DefaultRTOMin and 4*RTO
	// respectively. RTO = RTOMin = RTOMax pins every session's RTO.
	RTOMin sim.Time
	RTOMax sim.Time
	// MaxRetransmits is the budget of consecutive timeouts without
	// progress before a request fails with ErrTimeout; <= 0 means
	// DefaultMaxRetransmits.
	MaxRetransmits int
	// MaxRejects is the budget of consecutive server rejections
	// (PktReject) before a request fails with ErrServerOverloaded;
	// <= 0 means DefaultMaxRejects.
	MaxRejects int
	// SrvInFlightLimit caps requests admitted server-wide (receiving or
	// executing) across all server-mode sessions; past it new requests
	// are rejected with PktReject. 0 means unlimited.
	SrvInFlightLimit int
	// RQSize is the receive queue size used for the session budget
	// |RQ|/C; 0 means DefaultRQSize.
	RQSize int
	// LinkRateGbps is the host link rate, Timely's maximum rate; 0
	// means 25.
	LinkRateGbps float64
	// TxPipeline is a per-packet send latency that does not occupy
	// the CPU (doorbell MMIO + DMA fetch). Simulation mode only; use
	// the cluster profile's SWPipeline value.
	TxPipeline sim.Time
	// TimelyMinRTT is the fabric's base RTT, which normalizes Timely's
	// RTT gradient; 0 means Timely's default (10 µs).
	TimelyMinRTT sim.Time
	// Opts toggles the common-case optimizations (Table 3).
	Opts Opts
	// HeartbeatInterval enables session-management heartbeats for
	// node failure detection when non-zero (Appendix B): a peer silent
	// for 5 × HeartbeatInterval is declared failed.
	HeartbeatInterval sim.Time
}

func (c *Config) setDefaults() {
	if c.Transport == nil {
		panic("erpc: Config.Transport is required")
	}
	if c.Clock == nil {
		panic("erpc: Config.Clock is required")
	}
	if c.Cost == (CostModel{}) {
		c.Cost = DefaultCostModel()
	}
	if c.CPUScale == 0 {
		c.CPUScale = 1.0
	}
	if c.RTO == 0 {
		c.RTO = DefaultRTO
	}
	if c.RTOMin == 0 {
		c.RTOMin = DefaultRTOMin
	}
	if c.RTOMax == 0 {
		c.RTOMax = 4 * c.RTO
	}
	if c.RTOMax < c.RTOMin {
		c.RTOMax = c.RTOMin
	}
	if c.MaxRetransmits <= 0 {
		c.MaxRetransmits = DefaultMaxRetransmits
	}
	if c.MaxRejects <= 0 {
		c.MaxRejects = DefaultMaxRejects
	}
	if c.RQSize == 0 {
		c.RQSize = DefaultRQSize
	}
	if c.LinkRateGbps == 0 {
		c.LinkRateGbps = 25
	}
}

// Stats counts endpoint events.
type Stats struct {
	ReqsEnqueued  uint64
	ReqsCompleted uint64
	ReqsFailed    uint64
	PktsTx        uint64
	PktsRx        uint64
	BytesTx       uint64
	BytesRx       uint64
	Retransmits   uint64 // go-back-N rollbacks
	PktsPaced     uint64 // client packets that left through the rate limiter's wheel, not directly
	TimelyUpdates uint64 // RTT samples that recomputed a Timely rate (not bypassed)
	DMAFlushes    uint64
	TxBursts      uint64 // SendBurst flushes (one DMA doorbell each)
	StalePktsRx   uint64 // dropped: stale/duplicate/out-of-order
	// ZeroCopyTx is always 0: every frame is a copy in the TX batch's
	// own buffer and none aliases a msgbuf. The benchmark still reports
	// it as core.zero_copy_tx_per_op.
	ZeroCopyTx     uint64
	HandlersRun    uint64
	WorkerHandlers uint64
	PeerFailures   uint64

	// Fault-tolerance plane (Appendix B + overload shedding).
	RTOCur          uint64 // gauge: most recently computed adaptive RTO, ns
	RTOMinSeen      uint64 // gauge: smallest adaptive RTO computed, ns
	RTOMaxSeen      uint64 // gauge: largest adaptive RTO computed, ns
	BudgetExhausted uint64 // requests failed with ErrTimeout (retransmit budget)
	RejectsTx       uint64 // server: PktReject sent (overload or draining)
	RejectsRx       uint64 // client: PktReject received (delayed-retry backoff)
	OverloadFails   uint64 // requests failed with ErrServerOverloaded (reject budget)
}

// Rpc is an eRPC endpoint: one per dispatch thread (paper §3.1). All
// methods must be called from the owning dispatch context.
type Rpc struct {
	nexus *Nexus
	tr    transport.Transport
	clock sim.Clock
	unix  sim.UnixClock // clock, when it can place its readings on CLOCK_REALTIME; nil otherwise
	drv   driver        // who runs the loop: a goroutine or the scheduler
	cpu   *simDriver    // drv when it is the scheduler, whose CPU cursor is the time; nil over a real transport
	cfg   Config
	cost  CostModel
	opts  Opts

	dataPerPkt int
	alloc      *msgbuf.Allocator

	sessions    []*Session // client-mode sessions, by local number
	srvSessions map[sessKey]*Session

	wheel *carousel.Wheel[wheelEntry]

	// loopTS is the loop clock: the Clock as this pass last read it (at
	// its top and again after a non-empty RX burst), which is what now()
	// returns over a real transport while it is set. Zero between
	// passes, with Opts.DisableBatchedTimestamps and in simulated time.
	loopTS      sim.Time
	lastRTOScan sim.Time
	// loopUnix is loopTS on CLOCK_REALTIME (Unix ns), from the same read,
	// where the Clock can say (sim.UnixClock); 0 otherwise. It relates
	// the kernel's receive stamps (Frame.RxStamp) to the loop clock.
	loopUnix int64
	// rxAt is the loop-clock time the kernel received the packet being
	// processed: the start of the host delay that the server reports in
	// its replies (stampReplies) and the client subtracts from its RTT
	// samples (hostDelay). 0 when unknown — no stamp, or no loopUnix.
	rxAt sim.Time
	// passes logs the top-of-pass reads where loopUnix is known, for
	// txDwell; backToBack is set by a loop goroutine that runs this pass
	// straight after one that did work (and so may have sent packets).
	passes     passLog
	backToBack bool
	// rxLast and rxPrev are now() in the last two passes that received
	// packets: a goroutine's park waits awake while they are close
	// (loopDriver.park).
	rxLast, rxPrev sim.Time

	// posted is how other goroutines reach the loop: Post's closures,
	// among them the responses of handlers that ran on worker threads.
	posted struct {
		sync.Mutex
		fns []func()
	}

	lastHeard map[uint16]sim.Time // per-node liveness (Appendix B)
	lastHB    sim.Time

	// pool runs RunInWorker handlers over a real transport: a Server's
	// pool, shared by its endpoints (§3.2: worker threads are a
	// process-wide resource); nil means a goroutine per handler.
	pool *workerPool

	draining    bool // Drain called: no new sessions or requests admitted
	srvInFlight int  // server-wide requests admitted (receiving or executing)
	deadClient  int  // failed client-mode sessions (excluded from the session budget)

	// Burst datapath state (paper §4.2: RX/TX bursts, one DMA-queue
	// flush per batch).
	burst     int               // DefaultBurstSize in simulated time, transport.SocketBurst otherwise
	rxFrames  []transport.Frame // RecvBurst scratch, len == burst
	rxFull    bool              // last RX burst was full: more may be queued
	txBatch   []transport.Frame // per-iteration TX batch, its frames in txArena
	txArena   []byte            // burst × MTU bytes: the batch's frames, back to back
	txOff     int               // bytes of txArena the unflushed batch uses
	txReplies []txReply         // batch entries whose endpoint delay the flush stamps

	ctxFree []*ReqContext // recycled server-side request contexts

	decoded wire.Header // preallocated decode target (DecodingLayer idiom)

	// Stats is exported for experiment harnesses.
	Stats Stats

	// RTTHook, if set, receives every RTT sample measured at this
	// client (used by the incast experiments, Table 5).
	RTTHook func(sim.Time)
}

// NewRpc creates an endpoint. The Nexus's handlers become this
// endpoint's request handlers; the handler table is sealed (immutable)
// from this point on, so any number of endpoints can share it without
// synchronization.
func NewRpc(nexus *Nexus, cfg Config) *Rpc {
	cfg.setDefaults()
	nexus.seal()
	dataPerPkt := cfg.Transport.MTU() - wire.HeaderSize
	if dataPerPkt <= 0 {
		panic("erpc: transport MTU too small for header")
	}
	unix, _ := cfg.Clock.(sim.UnixClock)
	// The burst (§4.2: one DMA-queue flush per batch) is the paper's 16
	// where the scheduler drives the loop and 64 where a goroutine does:
	// there a flush is a syscall, not an MMIO write, and 64 frames are
	// what one sendmmsg of the batched UDP engine takes.
	burst := DefaultBurstSize
	if cfg.Sched == nil {
		burst = transport.SocketBurst
	}
	r := &Rpc{
		nexus:       nexus,
		tr:          cfg.Transport,
		clock:       cfg.Clock,
		unix:        unix,
		cfg:         cfg,
		cost:        cfg.Cost,
		opts:        cfg.Opts,
		dataPerPkt:  dataPerPkt,
		alloc:       msgbuf.NewAllocator(dataPerPkt),
		srvSessions: map[sessKey]*Session{},
		wheel:       carousel.New[wheelEntry](wheelSlots, wheelGran),
		lastHeard:   map[uint16]sim.Time{},
		burst:       burst,
		rxFrames:    make([]transport.Frame, burst),
		txBatch:     make([]transport.Frame, 0, burst),
		txArena:     make([]byte, burst*cfg.Transport.MTU()),
		txReplies:   make([]txReply, 0, burst),
	}
	if cfg.Sched != nil {
		r.cpu = newSimDriver(r, cfg.Sched)
		r.drv = r.cpu
		cfg.Transport.SetWake(r.cpu.wake)
	} else {
		r.drv = newLoopDriver(r)
	}
	return r
}

// Alloc returns a message buffer sized for size data bytes, drawn from
// the endpoint's pooled allocator (the paper's per-thread hugepage
// allocator).
func (r *Rpc) Alloc(size int) *msgbuf.Buf { return r.alloc.Alloc(size) }

// Free returns a buffer obtained from Alloc.
func (r *Rpc) Free(b *msgbuf.Buf) { r.alloc.Free(b) }

// DataPerPkt reports the data bytes carried per packet.
func (r *Rpc) DataPerPkt() int { return r.dataPerPkt }

// LocalAddr returns the endpoint's transport address.
func (r *Rpc) LocalAddr() transport.Addr { return r.tr.LocalAddr() }

// now returns the current time. In simulated time that is the CPU
// cursor (time advances as work is charged). Over a real transport it
// is the loop clock inside an event-loop pass — loopTS, read from the
// Clock at the top of the pass and once more after a non-empty RX burst,
// so progress stamps, the pacing clock, the wheel poll, the RTO scan and
// the heartbeat cost a pass two reads however many packets it moves
// (§5.2.2 optimization 3; eRPC's event-loop TSC) — and a read of the
// Clock for a call that arrives between passes (set-up code, a loop
// driven by hand): a stamp left over from the last pass would be as old
// as the wait since, and the 5 ms RTO would fire that much early.
// Opts.DisableBatchedTimestamps reads the Clock on every call.
//
// A dispatch-mode handler or continuation that runs for T makes every
// stamp taken after it in the same pass T old, as in eRPC; handlers that
// long belong on worker threads (§3.2).
func (r *Rpc) now() sim.Time {
	if r.cpu != nil {
		return r.cpu.cursor
	}
	if r.loopTS != 0 {
		return r.loopTS
	}
	return r.clock.Now()
}

// txStamp turns now() into a client packet's TX timestamp. Over a real
// transport now() is a batched timestamp already; in simulated time,
// where it is exact, a packet sent in a pass takes the cursor at the top
// of the pass (§5.2.2 optimization 3) unless
// Opts.DisableBatchedTimestamps, and one sent by an API call between
// passes the time of the call.
func (r *Rpc) txStamp(now sim.Time) sim.Time {
	if c := r.cpu; c != nil && c.inPass && !r.opts.DisableBatchedTimestamps {
		return c.passStart
	}
	return now
}

// charge advances the simulated CPU by d (scaled); no-op over a real
// transport, where costs are real.
func (r *Rpc) charge(d sim.Time) {
	if c := r.cpu; c != nil && d > 0 {
		c.cursor += sim.Time(float64(d) * c.scale)
	}
}

// chargeBytes charges a per-byte memcpy cost.
func (r *Rpc) chargeBytes(n int) {
	if c := r.cpu; c != nil && n > 0 {
		c.cursor += sim.Time(float64(n) * r.cost.MemcpyPerByte * c.scale)
	}
}

// CreateSession opens a client-mode session to the remote endpoint.
// It fails when the session budget |RQ|/C is exhausted (§4.3.1). Only
// live sessions count against the budget: sessions torn down by
// FailPeer or DestroySession release their RQ share, so a recovered
// peer can be reconnected (Appendix B — failure is not terminal).
func (r *Rpc) CreateSession(remote transport.Addr) (*Session, error) {
	if r.draining {
		return nil, ErrDraining
	}
	live := len(r.sessions) - r.deadClient
	if (live+len(r.srvSessions)+1)*DefaultCredits > r.cfg.RQSize {
		return nil, ErrTooManySessions
	}
	if len(r.sessions) >= 1<<16 {
		return nil, ErrTooManySessions
	}
	s := &Session{
		rpc:      r,
		num:      uint16(len(r.sessions)),
		remote:   remote,
		isClient: true,
		credits:  DefaultCredits,
		slots:    make([]sslot, DefaultNumSlots),
	}
	for i := range s.slots {
		// Request numbers advance by DefaultNumSlots per reuse so the
		// server can derive the slot index as reqNum % DefaultNumSlots;
		// starting at idx+DefaultNumSlots keeps reqNum 0 meaning "none".
		s.slots[i].reqNum = uint64(i)
	}
	if !r.opts.DisableCC {
		s.cc.timely = timely.New(timely.Params{LinkRate: r.cfg.LinkRateGbps * 1e9 / 8, MinRTT: r.cfg.TimelyMinRTT})
	}
	r.sessions = append(r.sessions, s)
	return s, nil
}

// NumSessions reports client-mode plus server-mode sessions.
func (r *Rpc) NumSessions() int { return len(r.sessions) + len(r.srvSessions) }

// EnqueueRequest starts an RPC on session s (paper §3.1). req holds
// the request message; resp must have capacity for the response. cont
// runs on the dispatch context when the response is complete (or the
// request fails); after cont runs, ownership of req and resp returns
// to the caller.
func (r *Rpc) EnqueueRequest(s *Session, reqType uint8, req, resp *msgbuf.Buf, cont func(error)) {
	if !s.isClient {
		panic("erpc: EnqueueRequest on a server-mode session")
	}
	r.apiEnter()
	defer r.apiExit()
	if req.MsgSize() > DefaultMaxMsg {
		r.complete(cont, ErrReqTooBig)
		return
	}
	if s.failed {
		r.complete(cont, ErrSessionClosed)
		return
	}
	if r.draining {
		// Admitted work (busy slots, backlog) still completes; new
		// requests are refused (graceful drain).
		r.complete(cont, ErrDraining)
		return
	}
	r.Stats.ReqsEnqueued++
	if len(s.backlog) > 0 {
		// Older requests are already queued: join the tail even if a
		// slot is momentarily free (a continuation runs between a
		// slot's reset and its popBacklog; letting its EnqueueRequest
		// steal the slot starved the backlog head for the life of the
		// workload — the window ≥ DefaultNumSlots cliff). Checked before the
		// slot scan: while a backlog exists the scan's answer is
		// unusable anyway.
		s.backlog = append(s.backlog, pendingReq{reqType: reqType, req: req, resp: resp, cont: cont})
		return
	}
	idx := r.freeSlot(s)
	if idx < 0 {
		// All slots busy: queue transparently (§4.3);
		// completeSlot/failSlot pop the head into every freed slot.
		s.backlog = append(s.backlog, pendingReq{reqType: reqType, req: req, resp: resp, cont: cont})
		return
	}
	r.startRequest(s, idx, reqType, req, resp, cont)
}

func (r *Rpc) freeSlot(s *Session) int {
	for i := range s.slots {
		if !s.slots[i].busy {
			return i
		}
	}
	return -1
}

func (r *Rpc) startRequest(s *Session, idx int, reqType uint8, req, resp *msgbuf.Buf, cont func(error)) {
	ss := &s.slots[idx]
	ss.reqNum += DefaultNumSlots
	ss.busy = true
	ss.reqType = reqType
	ss.req = req
	ss.resp = resp
	ss.cont = cont
	ss.numReqPkts = wire.NumPkts(uint32(req.MsgSize()), r.dataPerPkt)
	ss.reqSent = 0
	ss.reqAcked = 0
	ss.respNumPkts = 0
	ss.respRcvd = 0
	ss.rfrSent = 0
	ss.inFlight = 0
	ss.reqTxTimes = growTimes(ss.reqTxTimes, ss.numReqPkts)
	ss.respTxTimes = ss.respTxTimes[:0]
	ss.retransmits = 0
	ss.lastProgress = r.now()
	r.trySendSlot(s, idx)
}

// noStamp marks a TX timestamp slot whose packet has not been sent.
const noStamp sim.Time = -1

// growTimes returns ts resized to n entries of noStamp.
func growTimes(ts []sim.Time, n int) []sim.Time {
	if cap(ts) < n {
		ts = make([]sim.Time, n)
	}
	ts = ts[:n]
	for i := range ts {
		ts[i] = noStamp
	}
	return ts
}

// complete invokes a continuation with the continuation charge.
func (r *Rpc) complete(cont func(error), err error) {
	r.charge(r.cost.Continuation)
	if err != nil {
		r.Stats.ReqsFailed++
	} else {
		r.Stats.ReqsCompleted++
	}
	if cont != nil {
		cont(err)
	}
}

// RunEventLoopOnce performs one event-loop iteration (a loop driven by
// hand, in real or simulated time). It reports whether any work was
// done; idle callers should wait (WaitForWork) or yield the processor,
// so the peers they poll get it on small machines.
func (r *Rpc) RunEventLoopOnce() bool {
	before := r.Stats.PktsRx + r.Stats.PktsTx
	r.runOnce()
	return r.Stats.PktsRx+r.Stats.PktsTx != before
}

// WaitForWork blocks until a packet arrival or a Post wakes the
// endpoint, d elapses or the rate limiter's next deadline arrives,
// whichever is first. Callers driving the loop by hand use it on idle
// iterations: parking the goroutine lets the Go runtime service the
// network poller immediately, which matters on single-P machines where
// a spinning loop would otherwise wait for sysmon's ~10 ms netpoll
// pass. It panics on an endpoint the scheduler drives.
//
// The wait is awake in two cases: while the wheel holds anything, until
// wheel.NextDeadline, and while the endpoint's traffic is live — the last
// two passes that received packets were under d apart and the last of
// them under d ago — until d after that receive. Awake, the goroutine
// stays runnable, yields its P and now and then, on Linux, its thread's
// CPU (sched_yield) between looks at the clock and at the transport (a
// non-blocking receive, over a transport with a transport.Waiter), and
// returns on a packet or a wake, at the earlier of those ends, or after
// d. A live loop's next packet is likely a round trip away, sooner than
// a wake-up from the netpoller that crosses CPUs (the paper's polling
// dispatch thread, §3.2, §4.2). The gap rule keeps traffic that comes a
// millisecond apart asleep, and the CPU yield lets a thread the OS has
// runnable on the waiter's CPU — the peer loop's, woken by the
// netpoller, or another process's — run within microseconds instead of
// after the wait. Otherwise the wait sleeps: in the transport's Waiter —
// over UDP, parked in the netpoller on the endpoint's own socket, so a
// packet, the deadline or a wake ends one wait — or else on a timer and
// the SetWake channel. Go timers and read deadlines take whole
// milliseconds (see wheelSlots) and the wheel's horizon is under one, so
// sleeping would send every paced packet late; with an empty wheel and
// no live traffic only the RTO scan and the heartbeat are waiting, whose
// time constants are 5 ms and more, and d is then a lower bound on the
// park, not its length.
//
// WaitForWork reads the Clock itself, not the loop clock: it waits
// between passes, where no cached timestamp is current.
func (r *Rpc) WaitForWork(d time.Duration) { r.goroutine().park(d) }

// RunEventLoop drives the endpoint until stop is closed. The loop polls
// hot while work arrives — the paper's polling-based network I/O — and,
// between passes, waits awake while its traffic is live (receives under
// 200 µs apart) or a paced packet is due, up to 200 µs after the last
// receive or until the packet's deadline. Otherwise it sleeps until a
// packet arrives or a Post wakes it, for about a millisecond at most
// (see WaitForWork for what the 200 µs asked for here turns into). A
// busy serial exchange therefore keeps the endpoint's goroutine on a
// CPU, as eRPC's dispatch thread is; an idle endpoint costs next to
// none.
func (r *Rpc) RunEventLoop(stop <-chan struct{}) { r.goroutine().run(stop) }

// Post schedules fn to run on the endpoint's dispatch context during
// the next event-loop iteration. It is the only Rpc method that may be
// called from any goroutine; everything else (EnqueueRequest, Alloc,
// CreateSession, ...) must run on the dispatch context, so application
// code outside the loop goroutine injects work through Post.
func (r *Rpc) Post(fn func()) {
	r.posted.Lock()
	r.posted.fns = append(r.posted.fns, fn)
	r.posted.Unlock()
	r.drv.wake()
}

// drainPosted runs the closures Post queued: what applications inject
// and the responses of handlers that ran on worker threads (§3.2).
func (r *Rpc) drainPosted() {
	r.posted.Lock()
	fns := r.posted.fns
	r.posted.fns = nil
	r.posted.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// runOnce is one event-loop iteration: drain the rate limiter, one RX
// burst and what Post queued, then run the RTO scan and management
// timers, and finally flush the accumulated TX batch (paper §3.1: "the
// event loop performs the bulk of eRPC's work"; §4.2.2: one DMA-queue
// flush per batch). Over a real transport the pass reads the clock here
// and pollRX reads it once more after a non-empty burst; everything in
// between takes its time from now().
func (r *Rpc) runOnce() {
	if c := r.cpu; c != nil {
		c.passStart, c.inPass = c.cursor, true
	} else if !r.opts.DisableBatchedTimestamps {
		r.readLoopClock()
		if r.unix != nil {
			r.passes.record(r.loopTS, r.backToBack)
		}
	}
	r.pollWheel()
	r.pollRX()
	r.drainPosted()
	now := r.now()
	if now-r.lastRTOScan >= rtoScanInterval {
		r.lastRTOScan = now
		r.rtoScan()
	}
	r.heartbeat()
	r.flushTX()
	r.loopTS, r.loopUnix = 0, 0
	if c := r.cpu; c != nil {
		c.inPass = false
	}
}

// readLoopClock sets the loop clock, and where the Clock can say,
// where that reading falls on CLOCK_REALTIME: one read either way.
func (r *Rpc) readLoopClock() {
	if r.unix != nil {
		r.loopTS, r.loopUnix = r.unix.NowUnix()
		return
	}
	r.loopTS = r.clock.Now()
}

// pollRX pulls one burst of up to r.burst frames from the transport
// and processes each packet, then releases the whole burst, which the
// transport re-posts in bulk (the paper's RX descriptor re-post). A full
// burst sets rxFull so the loop runs again immediately: packet arrivals
// only wake an empty queue. Each packet is processed with rxAt set to
// when its host's kernel received it.
func (r *Rpc) pollRX() {
	n := r.tr.RecvBurst(r.rxFrames)
	r.rxFull = n == len(r.rxFrames)
	if n > 0 {
		if r.loopTS != 0 {
			// One clock read stamps the whole burst (§5.2.2 optimization
			// 3, the RX half): every RTT sample taken from it uses this
			// time, and so does everything the burst's packets set off.
			r.readLoopClock()
		}
		r.rxPrev, r.rxLast = r.rxLast, r.now()
	}
	for i := 0; i < n; i++ {
		f := &r.rxFrames[i]
		r.rxAt = r.kernelRxAt(f.RxStamp)
		r.processPkt(f.Data, f.Addr)
	}
	r.rxAt = 0
	transport.ReleaseBurst(r.rxFrames[:n])
}

// kernelRxAt places a frame's kernel receive stamp on the loop clock,
// or returns 0 when either end is unknown. A stamp later than the loop
// clock's read (the wall clock stepped between them) counts as no delay,
// one before the clock's origin as the origin: either under-reports.
func (r *Rpc) kernelRxAt(stamp int64) sim.Time {
	if stamp == 0 || r.loopUnix == 0 {
		return 0
	}
	held := max(sim.Time(r.loopUnix-stamp), 0)
	return max(r.loopTS-held, 1)
}
