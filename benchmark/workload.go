package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/erpc"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// workloadSpec is one closed-loop traffic mix. Every workload keeps
// sessions*slots requests outstanding from one client endpoint to one
// server endpoint; each completion re-issues from the continuation.
type workloadSpec struct {
	name     string
	why      string
	sessions int
	slots    int  // outstanding requests per session
	bulk     bool // slot 0 loops put (64 KiB request), slot 1 loops get (64 KiB response)
	inmem    bool // in-memory transport, one goroutine, virtual clock
	// allocFree marks a workload on which HEAD allocates nothing per
	// RPC; the timed run holds it under maxAllocsPerOp.
	allocFree bool
	// layerOnly marks a workload that `go run ./benchmark` runs and the
	// layer numbers use, but that BENCHMARK.json does not declare: its
	// wall-clock cells do not hold a bound on a shared host
	// (CALIBRATION.md).
	layerOnly bool
}

var workloads = []workloadSpec{
	{name: "echo_w1", sessions: 1, slots: 1, allocFree: true,
		why: "32 B echo, 1 outstanding over UDP loopback: latency-bound, four serial hand-offs per RPC, batching can do nothing"},
	{name: "echo_w128", sessions: 16, slots: 8,
		why: "32 B echo, 16 sessions x 8 slots outstanding over UDP loopback: batch-bound, RX/TX bursts fill, the small-RPC rate"},
	{name: "bulk_64k", sessions: 1, slots: 2, bulk: true,
		why: "64 KiB put and 64 KiB get looping side by side over UDP loopback: multi-packet path, credits, CR/RFR, GSO runs"},
	{name: "proto_inmem", sessions: 1, slots: 8, inmem: true, allocFree: true, layerOnly: true,
		why: "32 B echo, 8 outstanding, both endpoints on one goroutine over an in-memory transport and a virtual clock: protocol cost only, bypasses kernel and hand-offs"},
}

// echoW32 is the batch workload the issue first named (4 sessions x 8
// slots). On HEAD it sits on the edge between two regimes — RTT ~130 µs
// when the pipeline stays hot, ~1.3 ms when every RPC waits out a park
// — and flips between them for tens of seconds at a time, so no cell
// of it holds a bound (CALIBRATION.md). It is run briefly with the
// layer numbers and reported as harness.echo_w32.*; echo_w128, four
// times the window, stays in the ~1.4 ms regime and is steady.
var echoW32 = workloadSpec{name: "echo_w32", sessions: 4, slots: 8}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	reqEcho uint8 = 1
	reqPut  uint8 = 2
	reqGet  uint8 = 3

	smallSize = 32
	bulkSize  = 64 << 10

	parkDur = 200 * time.Microsecond // RunEventLoop's idle park
	slowRTT = 500 * time.Microsecond // between the two RTT modes of HEAD: tens of µs, and a park (~1.2 ms)

	// rttSamples is the recorders' initial capacity: a 5 s window of
	// echo_w128 or of proto_inmem's timed share fits without growing.
	rttSamples   = 1 << 20
	drainTimeout = 2 * time.Second // an RPC unresolved this long after the trial counts as failed

	// proto_inmem times one request in 17, which keeps the harness's
	// own clock reads under 2 % of a ~350 ns RPC; 17 is coprime with
	// the 8 slots, so the timed request rotates through them.
	inmemRTTSampleEvery = 17
)

// trialCfg describes one independent trial: fresh sockets, endpoints
// and sessions, a warm-up, a measured window, a drain.
type trialCfg struct {
	w       *workloadSpec
	seed    int64
	warm    time.Duration
	measure time.Duration
	traced  bool
	// newUDP builds the UDP transports; nil means the default engine
	// (erpc.NewUDPTransport). Set by the per-engine layer runs.
	newUDP func(erpc.Addr, string) (*transport.UDP, error)
	// opts is one Table 3 flag for the factor analysis.
	opts core.Opts
	// wallClock runs proto_inmem on the wall clock instead of the
	// virtual one (the README's contrast finding; tests only).
	wallClock bool
}

// udpCounters are the transport's public counters summed over both
// sockets.
type udpCounters struct {
	syscalls, gsoSegs, groBatches, groAliased, drops uint64
	fastPuts, sharedPuts                             uint64
}

func readUDP(trs []*transport.UDP) udpCounters {
	var c udpCounters
	for _, u := range trs {
		c.syscalls += u.Syscalls.Load()
		c.gsoSegs += u.GsoSegments.Load()
		c.groBatches += u.GroBatches.Load()
		c.groAliased += u.GroAliasedSegs.Load()
		c.drops += u.Drops.Load()
		ps := u.RxPoolStats()
		c.fastPuts += ps.FastPuts
		c.sharedPuts += ps.SharedPuts
	}
	return c
}

func (c udpCounters) sub(o udpCounters) udpCounters {
	return udpCounters{c.syscalls - o.syscalls, c.gsoSegs - o.gsoSegs, c.groBatches - o.groBatches,
		c.groAliased - o.groAliased, c.drops - o.drops, c.fastPuts - o.fastPuts, c.sharedPuts - o.sharedPuts}
}

// coreCounters are the core.Stats fields the ledger reads, summed over
// both endpoints.
type coreCounters struct {
	pktsTx, pktsRx, txBursts, retransmits, zeroCopyTx uint64
}

func readCore(s *core.Stats) coreCounters {
	return coreCounters{s.PktsTx, s.PktsRx, s.TxBursts, s.Retransmits, s.ZeroCopyTx}
}

func (c coreCounters) add(o coreCounters) coreCounters {
	return coreCounters{c.pktsTx + o.pktsTx, c.pktsRx + o.pktsRx, c.txBursts + o.txBursts,
		c.retransmits + o.retransmits, c.zeroCopyTx + o.zeroCopyTx}
}

func (c coreCounters) sub(o coreCounters) coreCounters {
	return coreCounters{c.pktsTx - o.pktsTx, c.pktsRx - o.pktsRx, c.txBursts - o.txBursts,
		c.retransmits - o.retransmits, c.zeroCopyTx - o.zeroCopyTx}
}

// trialResult is everything one trial measured over its window.
type trialResult struct {
	engine string
	// setupS is everything before the measured window opens: bind + peer
	// wiring + endpoints + sessions + buffers + first issue, then the
	// warm-up. setupWorkS leaves the warm-up's fixed sleep out; alone it
	// is ~2 ms of CPU-bound work that swings 2x with the host
	// (CALIBRATION.md, sets E and F), so it is reported per layer and
	// the gated cell carries the warm-up.
	setupS, setupWorkS float64
	windowNs           int64

	completed, failed, unresolved uint64
	payloadBytes                  uint64 // verified request+response payload bytes

	rtt, rttPut, rttGet *stats.Recorder // microseconds
	slow                uint64          // timed RPCs slower than slowRTT

	cpuNs   int64
	mallocs uint64
	core    coreCounters
	udp     udpCounters
	passes  uint64 // client event-loop iterations in the window (driven loops only)

	tracers []*tracer
	aggs    []traceAgg // one per tracer, closed at the end of the window
}

func (r *trialResult) attempted() uint64 { return r.completed + r.failed + r.unresolved }

// slot is one outstanding-request lane of the closed loop. Its buffers
// and continuation are allocated once, so the harness adds no
// allocation per RPC.
type slot struct {
	t        *trial
	sess     *erpc.Session
	reqType  uint8
	req      *erpc.Buf
	resp     *erpc.Buf
	cont     func(error)
	rtt      *stats.Recorder // per-direction recorder (bulk) or nil
	id       uint64
	t0       int64 // issue time, ns since trial epoch; 0 = not timed
	fixed    uint64
	inFlight bool
}

// trial holds the state the client dispatch goroutine owns.
type trial struct {
	cfg   trialCfg
	epoch time.Time
	cli   *erpc.Rpc
	ctr   *tracer // client-side tracer, nil untraced

	slots       []*slot
	nextID      uint64
	issued      uint64
	sampleEvery uint64 // every n-th request is timed (1 = all)
	measuring   bool
	stopping    bool
	outstanding int
	drained     chan struct{}

	completed, failed, payloadBytes, slow uint64
	rtt                                   *stats.Recorder
}

func (t *trial) now() int64 { return int64(time.Since(t.epoch)) }

// wordSum is the bulk checksum: the wrapping sum of the payload's
// little-endian 64-bit words. Word 0 carries the request id, so the
// expected sum of a fixed payload with a fresh id is fixed + id.
func wordSum(b []byte) uint64 {
	var s uint64
	for ; len(b) >= 8; b = b[8:] {
		s += binary.LittleEndian.Uint64(b)
	}
	return s
}

func (s *slot) issue() {
	t := s.t
	t.nextID++
	s.id = t.nextID
	binary.LittleEndian.PutUint64(s.req.Data(), s.id)
	t.issued++
	s.inFlight = true
	if tr := t.ctr; tr != nil {
		tr.begin(spEnqueue, s.id)
		s.t0 = t.now()
		t.cli.EnqueueRequest(s.sess, s.reqType, s.req, s.resp, s.cont)
		tr.end(0)
		return
	}
	if t.issued%t.sampleEvery == 0 {
		s.t0 = t.now()
	} else {
		s.t0 = 0
	}
	t.cli.EnqueueRequest(s.sess, s.reqType, s.req, s.resp, s.cont)
}

// verify checks the response against what the request must produce.
func (s *slot) verify() bool {
	resp := s.resp.Data()
	switch s.reqType {
	case reqEcho:
		return string(resp) == string(s.req.Data())
	case reqPut:
		return len(resp) == smallSize &&
			binary.LittleEndian.Uint64(resp) == s.id &&
			binary.LittleEndian.Uint64(resp[8:]) == bulkSize &&
			binary.LittleEndian.Uint64(resp[16:]) == s.fixed+s.id
	case reqGet:
		return len(resp) == bulkSize && wordSum(resp) == s.fixed+s.id
	}
	return false
}

// done is the continuation: verify, count, re-issue.
func (s *slot) done(err error) {
	t := s.t
	now := t.now()
	if t.ctr == nil {
		s.finish(now, err)
		return
	}
	t.ctr.async(spRPC, s.id, s.t0, now)
	t.ctr.begin(spCont, s.id)
	s.finish(now, err)
	t.ctr.end(0)
}

func (s *slot) finish(now int64, err error) {
	t := s.t
	s.inFlight = false
	ok := err == nil && s.verify()
	if !ok {
		// Counted in warm-up and drain too: no operation may fail.
		t.failed++
	}
	if t.measuring && ok {
		t.completed++
		t.payloadBytes += uint64(s.req.MsgSize() + s.resp.MsgSize())
		if s.t0 != 0 {
			us := float64(now-s.t0) / 1e3
			t.rtt.Add(us)
			if s.rtt != nil {
				s.rtt.Add(us)
			}
			if now-s.t0 > int64(slowRTT) {
				t.slow++
			}
		}
	}
	if t.stopping {
		if t.outstanding--; t.outstanding == 0 {
			close(t.drained)
		}
		return
	}
	s.issue()
}

// newNexus registers the three handlers. str is the server-side
// tracer (nil untraced); blob is the get payload.
func newNexus(str *tracer, blob []byte) *erpc.Nexus {
	nx := erpc.NewNexus()
	wrap := func(fn func(*erpc.ReqContext)) func(*erpc.ReqContext) {
		if str == nil {
			return fn
		}
		return func(ctx *erpc.ReqContext) {
			str.begin(spHandler, binary.LittleEndian.Uint64(ctx.Req))
			fn(ctx)
			str.end(0)
		}
	}
	// respond brackets the calls back into core so their time is not
	// booked to the application.
	respond := func(ctx *erpc.ReqContext) {
		if str != nil {
			str.begin(spEnqueue, 0)
			defer str.end(0)
		}
		ctx.EnqueueResponse()
	}
	alloc := func(ctx *erpc.ReqContext, n int) []byte {
		if str != nil {
			str.begin(spEnqueue, 0)
			defer str.end(0)
		}
		return ctx.AllocResponse(n)
	}
	nx.Register(reqEcho, erpc.Handler{Fn: wrap(func(ctx *erpc.ReqContext) {
		out := alloc(ctx, len(ctx.Req))
		copy(out, ctx.Req)
		respond(ctx)
	})})
	nx.Register(reqPut, erpc.Handler{Fn: wrap(func(ctx *erpc.ReqContext) {
		id, n, sum := binary.LittleEndian.Uint64(ctx.Req), uint64(len(ctx.Req)), wordSum(ctx.Req)
		out := alloc(ctx, smallSize)
		binary.LittleEndian.PutUint64(out, id)
		binary.LittleEndian.PutUint64(out[8:], n)
		binary.LittleEndian.PutUint64(out[16:], sum)
		respond(ctx)
	})})
	nx.Register(reqGet, erpc.Handler{Fn: wrap(func(ctx *erpc.ReqContext) {
		id := binary.LittleEndian.Uint64(ctx.Req)
		out := alloc(ctx, bulkSize)
		copy(out, blob)
		binary.LittleEndian.PutUint64(out, id)
		respond(ctx)
	})})
	return nx
}

func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// edge is what is read at each end of the measured window, on the
// client's dispatch context. The trial's own counters need no edge:
// they only move while the window is open.
type edge struct {
	t       int64
	cpu     int64
	mallocs uint64
	udp     udpCounters
	core    coreCounters // the client endpoint's
}

// openWindow starts measuring.
func (t *trial) openWindow(udps []*transport.UDP) edge {
	if t.ctr != nil {
		t.ctr.reset()
	}
	e := edge{udp: readUDP(udps), core: readCore(&t.cli.Stats), mallocs: mallocs(), cpu: cpuNs()}
	t.measuring = true
	e.t = t.now()
	return e
}

// closeWindow stops measuring and re-issuing; the requests still
// outstanding drain.
func (t *trial) closeWindow(udps []*transport.UDP) edge {
	e := edge{t: t.now()}
	t.measuring, t.stopping = false, true
	e.cpu, e.mallocs = cpuNs(), mallocs()
	e.udp, e.core = readUDP(udps), readCore(&t.cli.Stats)
	return e
}

// result assembles what the window measured, once the drain is over
// and nothing else touches the trial. srv is the server endpoint's
// counter delta over the window.
func (t *trial) result(engine string, setupWork time.Duration, e0, e1 edge, srv coreCounters) *trialResult {
	res := &trialResult{
		engine:       engine,
		setupS:       time.Duration(e0.t).Seconds(),
		setupWorkS:   setupWork.Seconds(),
		windowNs:     e1.t - e0.t,
		completed:    t.completed,
		failed:       t.failed,
		payloadBytes: t.payloadBytes,
		rtt:          t.rtt,
		slow:         t.slow,
		cpuNs:        e1.cpu - e0.cpu,
		mallocs:      e1.mallocs - e0.mallocs,
		core:         e1.core.sub(e0.core).add(srv),
		udp:          e1.udp.sub(e0.udp),
	}
	for _, s := range t.slots {
		if s.inFlight {
			res.unresolved++
		}
	}
	if t.cfg.w.bulk {
		res.rttPut, res.rttGet = t.slots[0].rtt, t.slots[1].rtt
	}
	return res
}

// prepareSlots allocates the per-slot buffers and fills the payloads
// from the seed. It runs on the client's dispatch context.
func (t *trial) prepareSlots(sessions []*erpc.Session, rng *rand.Rand, blob []byte) {
	w := t.cfg.w
	for _, sess := range sessions {
		for i := 0; i < w.slots; i++ {
			s := &slot{t: t, sess: sess, reqType: reqEcho}
			reqN, respN := smallSize, smallSize
			if w.bulk {
				s.rtt = stats.NewRecorder(1 << 16)
				if i == 0 {
					s.reqType, reqN = reqPut, bulkSize
				} else {
					s.reqType, respN = reqGet, bulkSize
				}
			}
			s.req, s.resp = t.cli.Alloc(reqN), t.cli.Alloc(respN)
			rng.Read(s.req.Data())
			switch s.reqType {
			case reqPut:
				s.fixed = wordSum(s.req.Data()[8:])
			case reqGet:
				s.fixed = wordSum(blob[8:])
			}
			s.cont = s.done
			t.slots = append(t.slots, s)
		}
	}
}

func (t *trial) startLoop() {
	t.outstanding = len(t.slots)
	for _, s := range t.slots {
		s.issue()
	}
}

// runTrial runs one trial of cfg.w and returns what it measured.
func runTrial(cfg trialCfg) (*trialResult, error) {
	run := runUDPTrial
	if cfg.w.inmem {
		run = runInmemTrial
	}
	res, err := run(cfg)
	if err == nil && res.completed == 0 {
		// Every metric is per completed RPC.
		err = fmt.Errorf("%s: no RPC completed in a %v window (%d failed, %d unresolved)",
			cfg.w.name, cfg.measure, res.failed, res.unresolved)
	}
	return res, err
}

// runUDPTrial: client and server endpoints in this process over
// 127.0.0.1, each with its own socket, reader goroutine and dispatch
// goroutine. Untraced, the dispatch goroutines are the library's own
// (Server.Start / Client.Start); traced, the harness runs the body of
// RunEventLoop itself so it can cut spans around it.
func runUDPTrial(cfg trialCfg) (*trialResult, error) {
	rtt := stats.NewRecorder(rttSamples) // the harness's own; not set-up of the system
	t0 := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	newUDP := cfg.newUDP
	if newUDP == nil {
		newUDP = erpc.NewUDPTransport
	}
	srvTr, err := newUDP(erpc.Addr{Node: 1}, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("server socket: %w", err)
	}
	defer srvTr.Close()
	cliTr, err := newUDP(erpc.Addr{Node: 2}, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("client socket: %w", err)
	}
	defer cliTr.Close()
	if err := erpc.AddPeersFrom([]*transport.UDP{srvTr}, []*transport.UDP{cliTr}); err != nil {
		return nil, err
	}
	if err := erpc.AddPeersFrom([]*transport.UDP{cliTr}, []*transport.UDP{srvTr}); err != nil {
		return nil, err
	}
	udps := []*transport.UDP{cliTr, srvTr}

	t := &trial{cfg: cfg, epoch: t0, drained: make(chan struct{}), rtt: rtt,
		sampleEvery: 1, nextID: uint64(rng.Int63())}
	var cliT, srvT transport.Transport = cliTr, srvTr
	var str *tracer
	if cfg.traced {
		t.ctr, str = newTracer("client", t0), newTracer("server", t0)
		cliT, srvT = &tracedTransport{cliTr, t.ctr}, &tracedTransport{srvTr, str}
	}
	blob := make([]byte, bulkSize)
	rng.Read(blob)
	nx := newNexus(str, blob)
	server := erpc.NewServer(nx, []erpc.Config{{Transport: srvT, Clock: erpc.NewWallClock(), Opts: cfg.opts}}, 1)
	client := erpc.NewClient(nx, []erpc.Config{{Transport: cliT, Clock: erpc.NewWallClock(), Opts: cfg.opts}})
	t.cli = client.Rpc(0)
	srv := server.Rpc(0)
	var sessions []*erpc.Session
	for i := 0; i < cfg.w.sessions; i++ {
		sess, err := client.CreateSession(0, server.Addrs())
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		sessions = append(sessions, sess)
	}

	// Dispatch goroutines.
	var stop atomic.Bool
	var wg sync.WaitGroup
	if cfg.traced {
		for _, e := range []struct {
			r  *erpc.Rpc
			tr *tracer
		}{{t.cli, t.ctr}, {srv, str}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				driveTraced(e.r, e.tr, &stop)
			}()
		}
	} else {
		server.Start()
		client.Start()
	}
	stopAll := func() {
		stop.Store(true)
		wg.Wait()
		client.Stop()
		server.Stop()
	}
	defer stopAll()

	// onBoth runs cf on the client's dispatch context and sf on the
	// server's, and waits for both.
	onBoth := func(cf, sf func()) {
		var done sync.WaitGroup
		done.Add(2)
		t.cli.Post(func() { cf(); done.Done() })
		srv.Post(func() { sf(); done.Done() })
		done.Wait()
	}

	onBoth(func() {
		t.prepareSlots(sessions, rng, blob)
		t.startLoop()
	}, func() {})
	setupWork := time.Since(t0)
	time.Sleep(cfg.warm)

	var e0, e1 edge
	var s0, s1 coreCounters
	aggs := make([]traceAgg, 2)
	onBoth(func() { e0 = t.openWindow(udps) }, func() {
		if str != nil {
			str.reset()
		}
		s0 = readCore(&srv.Stats)
	})
	time.Sleep(cfg.measure)
	onBoth(func() {
		e1 = t.closeWindow(udps)
		if t.ctr != nil {
			aggs[0] = t.ctr.snapshot()
		}
	}, func() {
		s1 = readCore(&srv.Stats)
		if str != nil {
			aggs[1] = str.snapshot()
		}
	})

	// Drain: every request still outstanding must resolve.
	select {
	case <-t.drained:
	case <-time.After(drainTimeout):
	}
	stopAll()
	// The dispatch goroutines have exited: the trial's state is ours.
	res := t.result(cliTr.Engine(), setupWork, e0, e1, s1.sub(s0))
	if cfg.traced {
		res.tracers, res.aggs = []*tracer{t.ctr, str}, aggs
		res.passes = uint64(aggs[0].count[spRunOnce])
	}
	return res, nil
}

// driveTraced is the body of Rpc.RunEventLoop with a span around each
// of its two calls.
func driveTraced(r *erpc.Rpc, tr *tracer, stop *atomic.Bool) {
	for !stop.Load() {
		tr.begin(spRunOnce, 0)
		worked := r.RunEventLoopOnce()
		if worked {
			tr.end(1)
			continue
		}
		tr.end(0)
		tr.begin(spPark, 0)
		r.WaitForWork(parkDur)
		tr.end(int64(parkDur))
	}
	r.RunEventLoopOnce()
}

// runInmemTrial: both endpoints on this goroutine over the in-memory
// pair. One loop pass is clock += 1 µs; client RunEventLoopOnce;
// server RunEventLoopOnce. The packet schedule is the same on every
// run: each pass completes all 8 outstanding RPCs.
func runInmemTrial(cfg trialCfg) (*trialResult, error) {
	rtt := stats.NewRecorder(rttSamples)
	t0 := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	cliTr, srvTr := newMemPair(erpc.Addr{Node: 2}, erpc.Addr{Node: 1})
	t := &trial{cfg: cfg, epoch: t0, drained: make(chan struct{}), rtt: rtt,
		sampleEvery: inmemRTTSampleEvery, nextID: uint64(rng.Int63())}
	var cliT, srvT transport.Transport = cliTr, srvTr
	var tr *tracer
	if cfg.traced {
		tr = newTracer("both", t0)
		t.ctr = tr
		cliT, srvT = &tracedTransport{cliTr, tr}, &tracedTransport{srvTr, tr}
	}
	vclock := &virtualClock{now: sim.Millisecond}
	var clock erpc.Clock = vclock
	if cfg.wallClock {
		clock = erpc.NewWallClock()
	}
	blob := make([]byte, bulkSize)
	rng.Read(blob)
	nx := newNexus(tr, blob)
	srv := erpc.NewRpc(nx, erpc.Config{Transport: srvT, Clock: clock, Opts: cfg.opts})
	cli := erpc.NewRpc(nx, erpc.Config{Transport: cliT, Clock: clock, Opts: cfg.opts})
	t.cli = cli
	var sessions []*erpc.Session
	for i := 0; i < cfg.w.sessions; i++ {
		sess, err := cli.CreateSession(srv.LocalAddr())
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		sessions = append(sessions, sess)
	}
	t.prepareSlots(sessions, rng, blob)
	t.startLoop()
	setupWork := time.Since(t0)

	var passes uint64
	pass := func() {
		vclock.now += sim.Microsecond
		if tr == nil {
			cli.RunEventLoopOnce()
			srv.RunEventLoopOnce()
		} else {
			tr.begin(spRunOnce, 0)
			tr.end(b2i(cli.RunEventLoopOnce()))
			tr.begin(spRunOnce, 0)
			tr.end(b2i(srv.RunEventLoopOnce()))
		}
		passes++
	}
	// runUntil loops until the wall clock passes deadline (checked
	// every 64 passes) or stop reports true.
	runUntil := func(deadline time.Duration, stop func() bool) {
		for {
			for i := 0; i < 64; i++ {
				pass()
			}
			if time.Since(t0) >= deadline || (stop != nil && stop()) {
				return
			}
		}
	}

	runUntil(setupWork+cfg.warm, nil)
	s0, p0 := readCore(&srv.Stats), passes
	e0 := t.openWindow(nil)
	runUntil(time.Duration(e0.t)+cfg.measure, nil)
	e1 := t.closeWindow(nil)
	s1, p1 := readCore(&srv.Stats), passes
	var aggs []traceAgg
	if tr != nil {
		aggs = []traceAgg{tr.snapshot()}
	}
	drained := func() bool {
		select {
		case <-t.drained:
			return true
		default:
			return false
		}
	}
	runUntil(time.Since(t0)+drainTimeout, drained)
	if cliTr.drops+srvTr.drops != 0 {
		return nil, errors.New("proto_inmem: in-memory queue overflowed")
	}
	res := t.result("inmem", setupWork, e0, e1, s1.sub(s0))
	res.passes = p1 - p0
	if tr != nil {
		res.tracers, res.aggs = []*tracer{tr}, aggs
	}
	return res, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
