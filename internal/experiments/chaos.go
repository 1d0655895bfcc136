package experiments

// Chaos sweep: the fault-tolerance layer (adaptive RTO + retry
// budgets, overload shedding, graceful drain) measured under scripted
// adversity on the real UDP loopback datapath. Each scenario runs a
// windowed echo workload through three wall-clock phases — a clean
// pre-fault baseline, a fault window driven by a transport.Chaos
// script (loss storm, blackhole partition, straggler latency,
// duplication burst) or a server-side overload window, and a clean
// post-fault recovery window. The sweep records goodput per phase,
// the recovery time (first successful completion after the fault
// clears), retransmit/reject/budget counters, and — the protocol
// invariant — that no request executed more than once anywhere in the
// storm. A final drain scenario stops a loaded server gracefully and
// audits that admitted work completed and every pooled msgbuf was
// freed.

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/transport"
)

// ChaosResult is one scenario of the chaos sweep.
type ChaosResult struct {
	Scenario string
	Fault    string
	Window   int

	PreMs   float64
	FaultMs float64
	PostMs  float64

	Issued      int
	Completed   int
	TimedOut    int
	Overloaded  int
	OtherErrors int
	// Unresolved counts requests still outstanding 30 s after the run
	// window closed (must be zero: every request completes or fails).
	Unresolved int

	// Executions counts distinct requests the server ran;
	// AtMostOnceViolations counts requests it ran more than once (must
	// be zero: the retransmit/dup/reject churn may never double-execute).
	Executions           int
	AtMostOnceViolations int

	Retransmits     uint64
	RejectsRx       uint64
	RejectsTx       uint64
	BudgetExhausted uint64
	// RTOCurMs is the adaptive RTO gauge after the run (largest across
	// sessions): stragglers should have pushed it up, clean wires held
	// it at the floor.
	RTOCurMs float64

	// Injected fault counts from the chaos engine (send side,
	// client→server direction).
	InjDrops      uint64
	InjDups       uint64
	InjReorders   uint64
	InjDelayed    uint64
	InjBlackholed uint64

	PreKrps   float64
	FaultKrps float64
	PostKrps  float64
	// RecoveryMs is the time from the end of the fault window to the
	// first successful completion after it — how fast goodput returns
	// once the wire heals. -1 means no completion in the post window.
	RecoveryMs float64
}

// ChaosDrainResult is the graceful-drain scenario: Server.Drain fires
// while multi-packet worker RPCs are in flight; every admitted request
// must complete, every caught-by-the-drain request must resolve with
// an explicit error, and the server's pooled msgbufs must balance.
type ChaosDrainResult struct {
	Issued     int
	Completed  int
	Overloaded int
	TimedOut   int
	// OtherErrors counts requests that failed with anything but
	// ErrServerOverloaded or ErrTimeout; Unresolved, requests that had
	// neither completed nor failed 30 s after the drain.
	OtherErrors int
	Unresolved  int
	// OKBeforeDrain is how many requests completed before the drain
	// fired; the drain waits for chaosDrainMinOK of them, 30 s at most.
	OKBeforeDrain        int
	Drained              bool
	Executions           int
	AtMostOnceViolations int
	MsgbufAllocs         uint64
	MsgbufFrees          uint64
}

// chaosScenario parameterizes one run of chaosMeasure.
type chaosScenario struct {
	name  string
	desc  string
	fault transport.ChaosPhase // Dur stamped by the runner
	// maxRetransmits overrides the client's consecutive-timeout budget
	// (0 = core default; the blackhole scenario tightens it so budget
	// exhaustion → ErrTimeout is observable inside the fault window).
	maxRetransmits int
	// rto pins the client's RTO, initial value, floor and ceiling alike
	// (0 = the adaptive range chaosMeasure sets).
	rto    sim.Time
	window int
	// overload replaces wire faults with a server-side overload window:
	// handlers turn slow and the in-flight ceiling bites, so arrivals
	// draw PktReject and clients with exhausted reject budgets see
	// ErrServerOverloaded.
	overload bool
}

var chaosScenarios = []chaosScenario{
	{
		name:   "loss_storm",
		desc:   "30% packet loss client->server",
		fault:  transport.ChaosPhase{Drop: 0.30},
		window: 8,
	},
	{
		name:           "blackhole",
		desc:           "full partition client->server; retransmit budget 5 -> ErrTimeout",
		fault:          transport.ChaosPhase{Blackhole: true},
		maxRetransmits: 5,
		// The fifth retransmit leaves 31 RTOs after the request's last
		// progress and the request fails 63 RTOs after it: at 5 ms, at
		// 155 and 315 ms of the 400 ms fault window. Adaptive, a loaded
		// host's RTT jitter can hold the RTO above 12.9 ms when the
		// fault starts; the fifth retransmit then leaves after the
		// window, gets through, and no request times out.
		rto:    sim.Time(5 * time.Millisecond),
		window: 8,
	},
	{
		name:   "straggler",
		desc:   "20ms added latency on every data packet (heartbeats clean)",
		fault:  transport.ChaosPhase{Delay: int64(20 * time.Millisecond), DataOnly: true},
		window: 8,
	},
	{
		name:   "dup_burst",
		desc:   "35% duplication + 15% reordering client->server",
		fault:  transport.ChaosPhase{Dup: 0.35, Reorder: 0.15},
		window: 8,
	},
	{
		name:     "overload",
		desc:     "server slow-handler window with in-flight ceiling 4; reject budget 3 -> ErrServerOverloaded",
		window:   16,
		overload: true,
	},
}

// chaosPhaseDurations returns the pre/fault/post wall-clock windows,
// shrunk by Scale with a floor so quick runs still cross every phase.
func chaosPhaseDurations(opts Options) (pre, fault, post time.Duration) {
	scaled := func(base time.Duration) time.Duration {
		d := time.Duration(float64(base) * opts.Scale)
		if d < base/4 {
			d = base / 4
		}
		return d
	}
	return scaled(200 * time.Millisecond), scaled(400 * time.Millisecond), scaled(600 * time.Millisecond)
}

// chaosLoopback binds the server (node 1) and client (node 2) UDP
// sockets of a chaos run on loopback, each mapped to the other.
func chaosLoopback() (srvTr, cliTr *transport.UDP) {
	srvTr, err := transport.NewUDP(transport.Addr{Node: 1, Port: 0}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	cliTr, err = transport.NewUDP(transport.Addr{Node: 2, Port: 0}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	if err := srvTr.AddPeer(cliTr.LocalAddr(), cliTr.BoundAddr().String()); err != nil {
		panic(err)
	}
	if err := cliTr.AddPeer(srvTr.LocalAddr(), srvTr.BoundAddr().String()); err != nil {
		panic(err)
	}
	return srvTr, cliTr
}

// execAudit is the at-most-once audit: the server records every
// execution by the unique id stamped into the request's first 4 bytes.
type execAudit struct {
	mu    sync.Mutex
	execs map[uint32]int
}

func newExecAudit() *execAudit { return &execAudit{execs: map[uint32]int{}} }

// record counts one execution of req; handlers call it from any goroutine.
func (a *execAudit) record(req []byte) {
	id := binary.BigEndian.Uint32(req)
	a.mu.Lock()
	a.execs[id]++
	a.mu.Unlock()
}

// tally returns the distinct requests executed and how many of them ran
// more than once.
func (a *execAudit) tally() (executions, violations int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.execs {
		if n > 1 {
			violations++
		}
	}
	return len(a.execs), violations
}

// chaosMeasure runs one scenario: a window of concurrent echo RPCs
// over real UDP loopback, the client's TX side wrapped in a
// phase-scripted Chaos transport under the wall clock.
func chaosMeasure(sc chaosScenario, opts Options) ChaosResult {
	opts = opts.norm()
	pre, faultDur, post := chaosPhaseDurations(opts)
	srvTr, cliTr := chaosLoopback()

	// The chaos script's origin is construction time: a clean pre
	// phase, then the fault window, then a clean wire for the rest of
	// the run (the recovery measurement). The overload scenario keeps
	// the wire clean throughout — its fault is server-side.
	var phases []transport.ChaosPhase
	if !sc.overload {
		f := sc.fault
		f.Dur = int64(faultDur)
		phases = []transport.ChaosPhase{{Dur: int64(pre)}, f}
	}
	chaos := transport.NewChaos(cliTr, opts.Seed, func() int64 { return time.Now().UnixNano() }, phases)
	t0 := time.Now()
	faultStart := t0.Add(pre)
	faultEnd := faultStart.Add(faultDur)
	runEnd := faultEnd.Add(post)

	// The at-most-once audit across retransmits, duplicated packets and
	// reject/retry churn.
	audit := newExecAudit()
	nx := core.NewNexus()
	nx.Register(1, core.Handler{RunInWorker: sc.overload, Fn: func(ctx *core.ReqContext) {
		audit.record(ctx.Req)
		if sc.overload {
			now := time.Now()
			if now.After(faultStart) && now.Before(faultEnd) {
				time.Sleep(3 * time.Millisecond) // the overload window: service rate collapses
			}
		}
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})

	srvCfg := core.Config{Transport: srvTr, Clock: sim.NewWallClock()}
	// The RTO floor matches the protocol default (5ms): loopback
	// goroutine scheduling jitter on a loaded host routinely exceeds
	// a converged sub-ms estimate, and spurious retransmits would
	// pollute the clean phases' goodput baseline that recovery is
	// measured against.
	cliCfg := core.Config{
		Transport: chaos,
		Clock:     sim.NewWallClock(),
		RTO:       sim.Time(10 * time.Millisecond),
		RTOMin:    sim.Time(5 * time.Millisecond),
		RTOMax:    sim.Time(100 * time.Millisecond),
	}
	if sc.maxRetransmits != 0 {
		cliCfg.MaxRetransmits = sc.maxRetransmits
	}
	if sc.rto != 0 {
		cliCfg.RTO, cliCfg.RTOMin, cliCfg.RTOMax = sc.rto, sc.rto, sc.rto
	}
	if sc.overload {
		srvCfg.SrvInFlightLimit = 4
		cliCfg.MaxRejects = 3
	}
	server := core.NewServer(nx, []core.Config{srvCfg}, 2)
	client := core.NewClient(nx, []core.Config{cliCfg})
	sess, err := client.CreateSession(0, server.Addrs())
	if err != nil {
		panic(err)
	}
	server.Start()
	client.Start()

	const reqSize = 32
	r := client.Rpc(0)
	reqs := make([]*msgbuf.Buf, sc.window)
	resps := make([]*msgbuf.Buf, sc.window)

	// The closed loop: every completion — success, timeout or overload
	// failure — re-issues a fresh request (new id) until the run window
	// closes, so offered load persists straight through the fault.
	// All of this state lives on the dispatch goroutine.
	var (
		issued, completed, timedOut, overloaded, other int
		okTimes                                        []time.Time
		outstanding                                    int
		nextID                                         uint32
	)
	done := make(chan struct{})
	r.Post(func() {
		for i := range reqs {
			reqs[i], resps[i] = r.Alloc(reqSize), r.Alloc(reqSize)
		}
		var issue func(slot int)
		issue = func(slot int) {
			binary.BigEndian.PutUint32(reqs[slot].Data(), nextID)
			nextID++
			issued++
			outstanding++
			r.EnqueueRequest(sess, 1, reqs[slot], resps[slot], func(err error) {
				outstanding--
				now := time.Now()
				switch {
				case err == nil:
					completed++
					okTimes = append(okTimes, now)
				case errors.Is(err, core.ErrTimeout):
					timedOut++
				case errors.Is(err, core.ErrServerOverloaded):
					overloaded++
				default:
					other++
				}
				if now.Before(runEnd) {
					issue(slot)
				} else if outstanding == 0 {
					close(done)
				}
			})
		}
		for s := 0; s < sc.window; s++ {
			issue(s)
		}
	})
	select {
	case <-done:
	case <-time.After(runEnd.Sub(t0) + 30*time.Second):
		// Hung RPCs: once the loop has stopped, outstanding counts them.
	}
	client.Stop()
	server.Stop()
	executions, violations := audit.tally()

	res := ChaosResult{
		Scenario:             sc.name,
		Fault:                sc.desc,
		Window:               sc.window,
		PreMs:                float64(pre) / 1e6,
		FaultMs:              float64(faultDur) / 1e6,
		PostMs:               float64(post) / 1e6,
		Issued:               issued,
		Completed:            completed,
		TimedOut:             timedOut,
		Overloaded:           overloaded,
		OtherErrors:          other,
		Unresolved:           outstanding,
		Executions:           executions,
		AtMostOnceViolations: violations,
		InjDrops:             chaos.Drops.Load(),
		InjDups:              chaos.Dups.Load(),
		InjReorders:          chaos.Reorders.Load(),
		InjDelayed:           chaos.Delayed.Load(),
		InjBlackholed:        chaos.Blackholed.Load(),
		RecoveryMs:           -1,
	}
	cst, sst := client.Stats(), server.Stats()
	res.Retransmits = cst.Retransmits
	res.RejectsRx = cst.RejectsRx
	res.BudgetExhausted = cst.BudgetExhausted
	res.RejectsTx = sst.RejectsTx
	res.RTOCurMs = float64(cst.RTOCur) / 1e6

	var nPre, nFault, nPost int
	for _, ts := range okTimes {
		switch {
		case ts.Before(faultStart):
			nPre++
		case ts.Before(faultEnd):
			nFault++
		default:
			nPost++
			if res.RecoveryMs < 0 {
				res.RecoveryMs = float64(ts.Sub(faultEnd)) / 1e6
			}
		}
	}
	res.PreKrps = float64(nPre) / pre.Seconds() / 1e3
	res.FaultKrps = float64(nFault) / faultDur.Seconds() / 1e3
	res.PostKrps = float64(nPost) / post.Seconds() / 1e3

	srvTr.Close()
	cliTr.Close()
	return res
}

// chaosDrainMinOK is how many requests complete before the drain fires,
// so that it catches the rest in flight.
const chaosDrainMinOK = 4

// chaosDrainMeasure runs the graceful-drain scenario: a burst of
// multi-packet worker RPCs, Server.Drain fired with most still in
// flight. Admitted work must complete, caught work must resolve with
// an explicit error, nothing may run twice, and the server's pooled
// request-reassembly msgbufs must balance (no leak across the drain).
func chaosDrainMeasure(opts Options) ChaosDrainResult {
	opts = opts.norm()
	const (
		nreqs   = 32
		reqSize = 4000 // 3 packets: exercises CRs and the pooled reqBuf path
	)

	audit := newExecAudit()
	nx := core.NewNexus()
	nx.Register(1, core.Handler{RunInWorker: true, Fn: func(ctx *core.ReqContext) {
		audit.record(ctx.Req)
		time.Sleep(time.Millisecond) // hold the request in flight
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})

	srvTr, cliTr := chaosLoopback()
	server := core.NewServer(nx, []core.Config{{Transport: srvTr, Clock: sim.NewWallClock()}}, 2)
	client := core.NewClient(nx, []core.Config{{
		Transport: cliTr,
		Clock:     sim.NewWallClock(),
		// Tight budgets so requests caught by the drain resolve fast:
		// a few rejects then ErrServerOverloaded, or a few silent
		// timeouts then ErrTimeout once the server stops.
		RTO:            sim.Time(2 * time.Millisecond),
		MaxRetransmits: 5,
		MaxRejects:     3,
	}})
	sess, err := client.CreateSession(0, server.Addrs())
	if err != nil {
		panic(err)
	}
	server.Start()
	client.Start()

	var (
		resolved, okCount, rejCount, toCount, other int
		resolvedCh                                  = make(chan int, nreqs)
	)
	finished := make(chan struct{})
	r := client.Rpc(0)
	r.Post(func() {
		for i := 0; i < nreqs; i++ {
			req, resp := r.Alloc(reqSize), r.Alloc(reqSize)
			binary.BigEndian.PutUint32(req.Data(), uint32(i))
			r.EnqueueRequest(sess, 1, req, resp, func(err error) {
				switch {
				case err == nil:
					okCount++
					resolvedCh <- okCount
				case errors.Is(err, core.ErrServerOverloaded):
					rejCount++
					resolvedCh <- -1
				case errors.Is(err, core.ErrTimeout):
					toCount++
					resolvedCh <- -1
				default:
					other++
					resolvedCh <- -1
				}
				if resolved++; resolved == nreqs {
					close(finished)
				}
			})
		}
	})

	// Let a slice of the burst complete, then drain with the rest in
	// flight. Drain stops the server when it returns (drained or not).
	// A drain that fires with fewer completions is reported, not waited
	// for past the deadline.
	deadline := time.After(30 * time.Second)
	seenOK := 0
wait:
	for seenOK < chaosDrainMinOK {
		select {
		case n := <-resolvedCh:
			seenOK = max(seenOK, n)
		case <-deadline:
			break wait
		}
	}
	drained := server.Drain(10 * time.Second)
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		// Unresolved RPCs: once the loop has stopped, resolved counts the rest.
	}
	client.Stop()
	executions, violations := audit.tally()
	allocs, frees := server.Rpc(0).AllocBalance()

	srvTr.Close()
	cliTr.Close()
	return ChaosDrainResult{
		Issued:               nreqs,
		Completed:            okCount,
		Overloaded:           rejCount,
		TimedOut:             toCount,
		OtherErrors:          other,
		Unresolved:           nreqs - resolved,
		OKBeforeDrain:        seenOK,
		Drained:              drained,
		Executions:           executions,
		AtMostOnceViolations: violations,
		MsgbufAllocs:         allocs,
		MsgbufFrees:          frees,
	}
}

// ChaosSweep runs every chaos scenario plus the drain audit.
func ChaosSweep(opts Options, printf func(format string, a ...any)) ([]ChaosResult, ChaosDrainResult) {
	opts = opts.norm()
	results := make([]ChaosResult, 0, len(chaosScenarios))
	for i, sc := range chaosScenarios {
		o := opts
		o.Seed = opts.Seed + int64(i) // distinct fault lottery per scenario, still reproducible
		m := chaosMeasure(sc, o)
		printf("chaos %-10s  pre %.1f krps, fault %.1f krps, post %.1f krps, recovery %.1f ms; "+
			"%d ok / %d timeout / %d overload; rtx %d, rejects %d, budget-exhausted %d, violations %d, rto %.2f ms\n",
			m.Scenario, m.PreKrps, m.FaultKrps, m.PostKrps, m.RecoveryMs,
			m.Completed, m.TimedOut, m.Overloaded,
			m.Retransmits, m.RejectsRx, m.BudgetExhausted, m.AtMostOnceViolations, m.RTOCurMs)
		results = append(results, m)
	}
	d := chaosDrainMeasure(opts)
	printf("chaos drain       %d/%d completed, %d overloaded, %d timed out, %d other, %d unresolved, drained=%v, msgbufs %d/%d, violations %d\n",
		d.Completed, d.Issued, d.Overloaded, d.TimedOut, d.OtherErrors, d.Unresolved, d.Drained,
		d.MsgbufFrees, d.MsgbufAllocs, d.AtMostOnceViolations)
	return results, d
}
