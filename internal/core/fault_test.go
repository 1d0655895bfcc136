package core

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Fault-tolerance plane tests: adaptive RTO, retransmit and reject
// budgets, overload shedding, graceful drain, and peer recovery.

func TestAdaptiveRTOConverges(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	for i := 0; i < 50; i++ {
		if _, err := e.call(t, r, s, bytesPattern(64), 128); err != nil {
			t.Fatal(err)
		}
	}
	// CX4 same-ToR RTTs are microseconds, so the Jacobson estimate
	// clamps to the floor — far below the fixed 5 ms default the
	// estimator replaces.
	if s.SRTT() == 0 || s.SRTT() > 100*sim.Microsecond {
		t.Fatalf("srtt = %v, want a microsecond-scale estimate", s.SRTT())
	}
	if s.RTO() != DefaultRTOMin {
		t.Fatalf("adaptive RTO = %v, want the %v floor", s.RTO(), DefaultRTOMin)
	}
	if r.Stats.RTOCur != uint64(DefaultRTOMin) {
		t.Fatalf("Stats.RTOCur = %d", r.Stats.RTOCur)
	}
	if r.Stats.RTOMinSeen == 0 || r.Stats.RTOMinSeen > r.Stats.RTOMaxSeen {
		t.Fatalf("RTO gauge range [%d, %d] malformed", r.Stats.RTOMinSeen, r.Stats.RTOMaxSeen)
	}
}

// TestPinnedRTOHoldsSessionRTO: RTO = RTOMin = RTOMax fixes every
// session's RTO at that value once RTT samples exist, whose sub-ms
// values would otherwise pull the estimate down to DefaultRTOMin.
func TestPinnedRTOHoldsSessionRTO(t *testing.T) {
	const pinned = 7 * sim.Millisecond
	e := newEnv(t, 2, echoNexus(), func(c *Config) { c.RTO, c.RTOMin, c.RTOMax = pinned, pinned, pinned }, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	for i := 0; i < 10; i++ {
		if _, err := e.call(t, r, s, bytesPattern(64), 128); err != nil {
			t.Fatal(err)
		}
	}
	if s.SRTT() == 0 {
		t.Fatal("no RTT sample: the pin was not tested against the estimator")
	}
	if s.RTO() != pinned {
		t.Fatalf("RTO = %v, want pinned %v", s.RTO(), pinned)
	}
	if r.Stats.RTOCur != uint64(pinned) {
		t.Fatalf("RTOCur = %d, want the pinned %d", r.Stats.RTOCur, pinned)
	}
}

func TestRetransmitBudgetExhaustsToErrTimeout(t *testing.T) {
	// Server that swallows requests: no CR, no response, no progress.
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) { /* never responds */ }})
	e := newEnv(t, 2, nx, func(c *Config) {
		c.RTO, c.RTOMin, c.RTOMax = sim.Millisecond, sim.Millisecond, sim.Millisecond
		c.MaxRetransmits = 3
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	var gotErr error
	done := false
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { done, gotErr = true, err })
	// Backoff schedule: 1 + 2 + 4 + 8 ms of waiting before the budget
	// check fires; 100 ms is plenty.
	e.sched.RunUntil(100 * sim.Millisecond)
	if !done {
		t.Fatal("request still pending after budget should have exhausted")
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if r.Stats.BudgetExhausted != 1 {
		t.Fatalf("BudgetExhausted = %d, want 1", r.Stats.BudgetExhausted)
	}
	if r.Stats.Retransmits != 3 {
		t.Fatalf("Retransmits = %d, want exactly the budget of 3", r.Stats.Retransmits)
	}
	// The session survives a request-level timeout: the path may heal.
	if s.failed {
		t.Fatal("budget exhaustion must not tear down the session")
	}
}

func TestOverloadRejectsThenRecovers(t *testing.T) {
	// A server that admits one request at a time and takes 200 µs per
	// handler, facing 8 concurrent requests: 7 draw PktReject, park in
	// reject backoff, and retry until the server catches up. Everything
	// completes, exactly once.
	runs := 0
	nx := NewNexus()
	nx.Register(echoType, Handler{
		RunInWorker: true,
		Cost:        200 * sim.Microsecond,
		Fn: func(ctx *ReqContext) {
			runs++
			out := ctx.AllocResponse(4)
			copy(out, "busy")
			ctx.EnqueueResponse()
		},
	})
	e := newEnv(t, 2, nx, func(c *Config) {
		c.RTO = 1 * sim.Millisecond
		c.SrvInFlightLimit = 1
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	const n = 8
	done := 0
	for i := 0; i < n; i++ {
		r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) {
			if err != nil {
				t.Errorf("rpc: %v", err)
			}
			done++
		})
	}
	e.sched.Run()
	if done != n {
		t.Fatalf("completed %d of %d under overload shedding", done, n)
	}
	if runs != n {
		t.Fatalf("handler ran %d times for %d RPCs (at-most-once across rejects violated)", runs, n)
	}
	if r.Stats.RejectsRx == 0 || e.rpcs[1].Stats.RejectsTx == 0 {
		t.Fatalf("shedding idle: client rx=%d server tx=%d rejects",
			r.Stats.RejectsRx, e.rpcs[1].Stats.RejectsTx)
	}
	if r.Stats.OverloadFails != 0 {
		t.Fatalf("OverloadFails = %d, want 0 (server recovered in time)", r.Stats.OverloadFails)
	}
}

func TestRejectBudgetExhaustsToErrServerOverloaded(t *testing.T) {
	// A draining server rejects every request of a new session; the
	// client's reject budget turns the permanent refusal into
	// ErrServerOverloaded instead of retrying forever.
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		c.RTO = 1 * sim.Millisecond
		c.MaxRejects = 2
	}, nil)
	r, srv := e.rpcs[0], e.rpcs[1]
	s, _ := r.CreateSession(srv.LocalAddr())
	srv.Drain()
	var gotErr error
	done := false
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { done, gotErr = true, err })
	e.sched.Run()
	if !done {
		t.Fatal("request never resolved against a draining server")
	}
	if !errors.Is(gotErr, ErrServerOverloaded) {
		t.Fatalf("err = %v, want ErrServerOverloaded", gotErr)
	}
	if r.Stats.OverloadFails != 1 || r.Stats.RejectsRx == 0 {
		t.Fatalf("OverloadFails = %d, RejectsRx = %d", r.Stats.OverloadFails, r.Stats.RejectsRx)
	}
	if srv.Stats.RejectsTx == 0 {
		t.Fatal("draining server sent no rejects")
	}
	if !srv.Drained() {
		t.Fatal("server with no admitted work must report Drained")
	}
	// Credits came back with the failure: the pool is whole.
	if s.Credits() != DefaultCredits {
		t.Fatalf("credits = %d, want %d", s.Credits(), DefaultCredits)
	}
}

func TestDrainCompletesAdmittedWork(t *testing.T) {
	// Admitted requests run to completion across a drain; requests
	// arriving after it draw rejects.
	nx := NewNexus()
	nx.Register(echoType, Handler{
		RunInWorker: true,
		Cost:        200 * sim.Microsecond,
		Fn: func(ctx *ReqContext) {
			out := ctx.AllocResponse(len(ctx.Req))
			copy(out, ctx.Req)
			ctx.EnqueueResponse()
		},
	})
	e := newEnv(t, 2, nx, func(c *Config) {
		c.RTO = 1 * sim.Millisecond
		c.MaxRejects = 2
	}, nil)
	r, srv := e.rpcs[0], e.rpcs[1]
	s, _ := r.CreateSession(srv.LocalAddr())
	const admitted = 4
	okDone, rejDone := 0, 0
	for i := 0; i < admitted; i++ {
		r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) {
			if err != nil {
				t.Errorf("admitted rpc failed: %v", err)
			}
			okDone++
		})
	}
	// Let the requests reach the server and enter their handlers.
	e.sched.RunUntil(100 * sim.Microsecond)
	srv.Drain()
	if srv.Drained() {
		t.Fatal("Drained true with handlers still executing")
	}
	for i := 0; i < admitted; i++ {
		r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) {
			if !errors.Is(err, ErrServerOverloaded) {
				t.Errorf("post-drain rpc: err = %v, want ErrServerOverloaded", err)
			}
			rejDone++
		})
	}
	e.sched.Run()
	if okDone != admitted || rejDone != admitted {
		t.Fatalf("admitted %d/%d completed, post-drain %d/%d resolved",
			okDone, admitted, rejDone, admitted)
	}
	if !srv.Drained() {
		t.Fatal("server did not report Drained after admitted work finished")
	}
}

// TestDrainedSeesWorkerResponses: a handler that returned on a worker
// thread has left its response in the Post queue, and until a pass runs
// it the endpoint is not drained — over a real transport too, where the
// queue used to be out of Drained's sight. The stale case is the one
// srvInFlight does not cover for: the peer failed while the handler
// ran, its slot is reset, nothing is in flight, and the queued response
// still holds a request context and a buffer.
func TestDrainedSeesWorkerResponses(t *testing.T) {
	for _, stale := range []bool{false, true} {
		passOver, returned := make(chan struct{}), make(chan struct{})
		nx := NewNexus()
		nx.Register(echoType, Handler{RunInWorker: true, Fn: func(ctx *ReqContext) {
			<-passOver // or the pass that handed the request out may run the response too
			copy(ctx.AllocResponse(len(ctx.Req)), ctx.Req)
			ctx.EnqueueResponse()
			close(returned)
		}})
		tr := newQueueTransport()
		r := NewRpc(nx, Config{Transport: tr, Clock: sim.NewWallClock()})
		peer := transport.Addr{Node: 2}
		tr.inject(fuzzFrame(wire.Header{PktType: wire.PktReq, ReqType: echoType, MsgSize: 4,
			ReqNum: DefaultNumSlots}, []byte("ping")), peer)
		r.RunEventLoopOnce() // the request arrives, its handler goes to a worker
		close(passOver)
		<-returned
		if stale {
			r.FailPeer(peer.Node)
		}
		r.Drain()
		if r.Drained() {
			t.Fatalf("stale=%v: Drained with a worker's response waiting for the loop", stale)
		}
		r.RunEventLoopOnce()
		if !r.Drained() {
			t.Fatalf("stale=%v: not Drained one pass after the handler returned", stale)
		}
		if want := map[bool]int{false: 1, true: 0}[stale]; tr.sent != want {
			t.Fatalf("stale=%v: %d packets sent, want %d", stale, tr.sent, want)
		}
	}
}

func TestClientDrainFailsNewKeepsInFlight(t *testing.T) {
	nx := NewNexus()
	nx.Register(echoType, Handler{
		RunInWorker: true,
		Cost:        200 * sim.Microsecond,
		Fn: func(ctx *ReqContext) {
			out := ctx.AllocResponse(2)
			copy(out, "ok")
			ctx.EnqueueResponse()
		},
	})
	e := newEnv(t, 2, nx, nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	var inFlightErr error
	done := false
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { done, inFlightErr = true, err })
	e.sched.RunUntil(50 * sim.Microsecond)
	r.Drain()
	var newErr error
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { newErr = err })
	if !errors.Is(newErr, ErrDraining) {
		t.Fatalf("post-drain enqueue err = %v, want ErrDraining", newErr)
	}
	if _, err := r.CreateSession(e.rpcs[1].LocalAddr()); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain CreateSession err = %v, want ErrDraining", err)
	}
	e.sched.Run()
	if !done || inFlightErr != nil {
		t.Fatalf("in-flight request: done=%v err=%v, want clean completion", done, inFlightErr)
	}
	if !r.Drained() {
		t.Fatal("client endpoint did not report Drained")
	}
}

func TestPeerChurnLivenessMapPruned(t *testing.T) {
	// Repeated fail/reconnect cycles against one peer: the liveness map
	// must not accumulate dead entries, and failed sessions must release
	// their |RQ|/C budget share so reconnection always succeeds. RQSize
	// admits at most two live sessions — without the budget release the
	// third churn round would fail with ErrTooManySessions.
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		c.HeartbeatInterval = 200 * sim.Millisecond // failure after 1 s of silence: manual FailPeer only
		c.RQSize = 3 * DefaultCredits
	}, nil)
	r := e.rpcs[0]
	now := sim.Time(0)
	const rounds = 5
	for round := 0; round < rounds; round++ {
		s, err := r.CreateSession(e.rpcs[1].LocalAddr())
		if err != nil {
			t.Fatalf("round %d: CreateSession: %v (budget leak across churn?)", round, err)
		}
		okErr := errors.New("unset")
		r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { okErr = err })
		now += 5 * sim.Millisecond
		e.sched.RunUntil(now)
		if okErr != nil {
			t.Fatalf("round %d: rpc err = %v", round, okErr)
		}
		if len(r.lastHeard) == 0 {
			t.Fatalf("round %d: heartbeats never populated the liveness map", round)
		}
		r.FailPeer(s.Remote().Node)
		if len(r.lastHeard) != 0 {
			t.Fatalf("round %d: liveness map holds %d entries after FailPeer (leak)",
				round, len(r.lastHeard))
		}
		if !s.failed {
			t.Fatalf("round %d: session not failed", round)
		}
		now += 2 * sim.Millisecond
		e.sched.RunUntil(now)
	}
	if r.Stats.PeerFailures != rounds {
		t.Fatalf("PeerFailures = %d, want %d", r.Stats.PeerFailures, rounds)
	}
	if r.deadClient != rounds {
		t.Fatalf("deadClient = %d, want %d", r.deadClient, rounds)
	}
}

func TestPeerRecoveryAfterFailure(t *testing.T) {
	// FailPeer is not terminal: a new session to the failed node works,
	// and the recreated session gets the new-peer heartbeat grace period
	// instead of inheriting the stale lastHeard timestamp (which would
	// re-fail the peer on the next heartbeat round).
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		c.HeartbeatInterval = 1 * sim.Millisecond // failure after 5 ms of silence
	}, nil)
	r := e.rpcs[0]
	s1, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	var err1 error
	r.EnqueueRequest(s1, echoType, r.Alloc(8), r.Alloc(8), func(err error) { err1 = err })
	e.sched.RunUntil(3 * sim.Millisecond)
	if err1 != nil {
		t.Fatalf("pre-failure rpc: %v", err1)
	}
	r.FailPeer(s1.Remote().Node)
	// Dead time well past the 5 ms failure timeout: a stale lastHeard entry would
	// now be lethal to any recreated session.
	e.sched.RunUntil(20 * sim.Millisecond)

	s2, err := r.CreateSession(e.rpcs[1].LocalAddr())
	if err != nil {
		t.Fatalf("CreateSession to recovered peer: %v", err)
	}
	recoveredErr := errors.New("unset")
	r.EnqueueRequest(s2, echoType, r.Alloc(8), r.Alloc(8), func(err error) { recoveredErr = err })
	e.sched.RunUntil(40 * sim.Millisecond)
	if recoveredErr != nil {
		t.Fatalf("post-recovery rpc: %v", recoveredErr)
	}
	if s2.failed {
		t.Fatal("recovered session was re-failed (stale liveness state)")
	}
	if r.Stats.PeerFailures != 1 {
		t.Fatalf("PeerFailures = %d, want only the manual one", r.Stats.PeerFailures)
	}
}

func TestStragglerBudgetVsLiveness(t *testing.T) {
	// A straggler peer: heartbeats answered (the node looks alive to the
	// management plane) while the data plane is blackholed. The
	// retransmit budget must fail the request with ErrTimeout; the
	// liveness layer must NOT declare the node dead. This is the
	// separation the two timeouts exist for — FailPeer is for dead
	// nodes, ErrTimeout for dead requests.
	phases := []transport.ChaosPhase{{Dur: int64(sim.Second), Blackhole: true, DataOnly: true}}
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		if c.Transport.LocalAddr().Node == 0 {
			clk := c.Clock
			c.Transport = transport.NewChaos(c.Transport, 1,
				func() int64 { return int64(clk.Now()) }, phases)
		}
		c.RTO, c.RTOMin, c.RTOMax = sim.Millisecond, sim.Millisecond, sim.Millisecond
		c.MaxRetransmits = 4
		c.HeartbeatInterval = 1 * sim.Millisecond // failure after 5 ms of silence
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	var gotErr error
	done := false
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { done, gotErr = true, err })
	e.sched.RunUntil(200 * sim.Millisecond)
	if !done {
		t.Fatal("request never resolved against the straggler")
	}
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if r.Stats.PeerFailures != 0 {
		t.Fatalf("PeerFailures = %d: a straggler answering pings must not be declared dead",
			r.Stats.PeerFailures)
	}
	if r.Stats.BudgetExhausted != 1 {
		t.Fatalf("BudgetExhausted = %d, want 1", r.Stats.BudgetExhausted)
	}
	if s.failed {
		t.Fatal("session must survive a data-plane-only stall")
	}
	chaos := r.tr.(*transport.Chaos)
	if chaos.Blackholed.Load() == 0 {
		t.Fatal("chaos engine never blackholed a data packet")
	}
}

func TestDestroyMidBurstCreditConsistency(t *testing.T) {
	// Destroying a session while a multi-packet burst is mid-flight and
	// a backlog is queued must leave the credit pool whole and the rate
	// limiter empty, and a fresh session must work at full window.
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		c.Opts.DisableRateLimiterBypass = true // force wheel traffic
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	errs := 0
	total := 0
	// Three large transfers (each ~137 packets, far past the 32-credit
	// window) plus a backlog of small ones behind them.
	for i := 0; i < 3; i++ {
		total++
		r.EnqueueRequest(s, echoType, r.Alloc(200_000), r.Alloc(200_000), func(err error) {
			if errors.Is(err, ErrSessionClosed) {
				errs++
			}
		})
	}
	for i := 0; i < 10; i++ {
		total++
		r.EnqueueRequest(s, echoType, r.Alloc(16), r.Alloc(16), func(err error) {
			if errors.Is(err, ErrSessionClosed) {
				errs++
			}
		})
	}
	e.sched.RunUntil(30 * sim.Microsecond) // mid-burst: credits consumed, wheel loaded
	r.DestroySession(s)
	e.sched.Run()
	if errs != total {
		t.Fatalf("%d of %d requests failed with ErrSessionClosed", errs, total)
	}
	if s.Credits() != DefaultCredits {
		t.Fatalf("credits = %d after mid-burst destroy, want %d", s.Credits(), DefaultCredits)
	}
	if r.wheel.Len() != 0 {
		t.Fatalf("rate limiter still holds %d entries", r.wheel.Len())
	}
	if len(s.backlog) != 0 {
		t.Fatalf("backlog still holds %d requests", len(s.backlog))
	}
	// The credit pool is consistent: a new session round-trips a
	// window-sized transfer.
	s2, err := r.CreateSession(e.rpcs[1].LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytesPattern(100_000)
	out, err := e.call(t, r, s2, payload, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at byte %d after churn", i)
		}
	}
}

// TestFirstEchoSamplesRTT: in simulated time a request enqueued between
// passes is stamped with the time of the call, so an endpoint's first
// echo already feeds the RTT estimator, whether it is enqueued at t = 0
// or later, before the loop has run a pass.
func TestFirstEchoSamplesRTT(t *testing.T) {
	for _, at := range []sim.Time{0, sim.Microsecond} {
		e := newEnv(t, 2, echoNexus(), nil, nil)
		r := e.rpcs[0]
		s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
		var err error
		done := false
		e.sched.At(at, func() {
			r.EnqueueRequest(s, echoType, r.Alloc(32), r.Alloc(32), func(e error) { done, err = true, e })
		})
		e.sched.Run()
		if !done || err != nil {
			t.Fatalf("enqueued at %v: done %v, err %v", at, done, err)
		}
		if s.SRTT() == 0 {
			t.Errorf("enqueued at %v: SRTT 0 after one echo", at)
		}
	}
}
