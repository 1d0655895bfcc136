package core

import (
	"errors"
	"testing"

	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// env wires N simulated nodes, each with one Rpc endpoint, onto a CX4
// single-switch fabric.
type env struct {
	sched *sim.Scheduler
	fab   *simnet.Fabric
	rpcs  []*Rpc
}

// echoType is the request type of the standard echo handler.
const echoType = 1

func echoNexus() *Nexus {
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	return nx
}

func newEnv(t *testing.T, nodes int, nx *Nexus, mutate func(*Config), fcfg func(*simnet.Config)) *env {
	t.Helper()
	sched := sim.NewScheduler(1)
	cfg := simnet.Config{Profile: simnet.CX4(), Topology: simnet.SingleSwitch(nodes)}
	if fcfg != nil {
		fcfg(&cfg)
	}
	fab, err := simnet.New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{sched: sched, fab: fab}
	for i := 0; i < nodes; i++ {
		rcfg := Config{
			Transport:    fab.AttachEndpoint(i),
			Clock:        sched,
			Sched:        sched,
			LinkRateGbps: cfg.Profile.LinkGbps,
			CPUScale:     cfg.Profile.CPUScale,
		}
		if mutate != nil {
			mutate(&rcfg)
		}
		e.rpcs = append(e.rpcs, NewRpc(nx, rcfg))
	}
	return e
}

// call issues one RPC and runs the simulation until it completes.
func (e *env) call(t *testing.T, r *Rpc, s *Session, payload []byte, respCap int) ([]byte, error) {
	t.Helper()
	req := r.Alloc(len(payload))
	copy(req.Data(), payload)
	resp := r.Alloc(respCap)
	var done bool
	var gotErr error
	r.EnqueueRequest(s, echoType, req, resp, func(err error) {
		done = true
		gotErr = err
	})
	e.sched.Run()
	if !done {
		t.Fatal("RPC did not complete")
	}
	out := make([]byte, resp.MsgSize())
	copy(out, resp.Data())
	r.Free(req)
	r.Free(resp)
	return out, gotErr
}

func bytesPattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

func TestSinglePacketRPC(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	s, err := e.rpcs[0].CreateSession(e.rpcs[1].LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.call(t, e.rpcs[0], s, []byte("hello, eRPC"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello, eRPC" {
		t.Fatalf("echo = %q", out)
	}
	// Exactly two data packets for a single-packet RPC (§5.1).
	if e.rpcs[0].Stats.PktsTx != 1 || e.rpcs[1].Stats.PktsTx != 1 {
		t.Fatalf("tx counts: client=%d server=%d, want 1/1",
			e.rpcs[0].Stats.PktsTx, e.rpcs[1].Stats.PktsTx)
	}
}

func TestRPCLatencyIsMicroseconds(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	s, _ := e.rpcs[0].CreateSession(e.rpcs[1].LocalAddr())
	var lat sim.Time
	req := e.rpcs[0].Alloc(32)
	resp := e.rpcs[0].Alloc(32)
	e.rpcs[0].EnqueueRequest(s, echoType, req, resp, func(error) { lat = e.sched.Now() })
	e.sched.Run()
	// CX4 same-ToR RPC latency should be a handful of microseconds
	// (paper Table 2: 3.7 µs median).
	if lat < 2*sim.Microsecond || lat > 8*sim.Microsecond {
		t.Fatalf("RPC latency = %v, want ~3-4 µs", lat)
	}
}

func TestMultiPacketRequest(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	s, _ := e.rpcs[0].CreateSession(e.rpcs[1].LocalAddr())
	// CX4 data-per-packet is 1024; 5000 bytes = 5 packets.
	payload := bytesPattern(5000)
	out, err := e.call(t, e.rpcs[0], s, payload, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5000 {
		t.Fatalf("resp len = %d", len(out))
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestLargeResponseUsesRFRs(t *testing.T) {
	nx := NewNexus()
	const respSize = 10_000
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(respSize)
		copy(out, bytesPattern(respSize))
		ctx.EnqueueResponse()
	}})
	e := newEnv(t, 2, nx, nil, nil)
	s, _ := e.rpcs[0].CreateSession(e.rpcs[1].LocalAddr())
	out, err := e.call(t, e.rpcs[0], s, []byte("gimme"), 16384)
	if err != nil {
		t.Fatal(err)
	}
	want := bytesPattern(respSize)
	if len(out) != respSize {
		t.Fatalf("resp len = %d", len(out))
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestLargeBothWays(t *testing.T) {
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	e := newEnv(t, 2, nx, nil, nil)
	s, _ := e.rpcs[0].CreateSession(e.rpcs[1].LocalAddr())
	payload := bytesPattern(100_000)
	out, err := e.call(t, e.rpcs[0], s, payload, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(payload) {
		t.Fatalf("resp len = %d", len(out))
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestConcurrentRequestsAndBacklog(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	const n = 40 // 8 slots + 32 backlogged (§4.3)
	done := 0
	for i := 0; i < n; i++ {
		req := r.Alloc(16)
		resp := r.Alloc(16)
		req.Data()[0] = byte(i)
		r.EnqueueRequest(s, echoType, req, resp, func(err error) {
			if err != nil {
				t.Errorf("rpc %d: %v", i, err)
			}
			done++
		})
	}
	e.sched.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if s.Credits() != DefaultCredits {
		t.Fatalf("credits leaked: %d != %d", s.Credits(), DefaultCredits)
	}
}

func TestCreditsNeverNegativeOrLeaked(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, func(c *simnet.Config) { c.LossRate = 0.02 })
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	sizes := []int{10, 3000, 1, 9000, 1024, 2048, 40_000, 16, 100}
	done := 0
	for _, sz := range sizes {
		req := r.Alloc(sz)
		resp := r.Alloc(64 * 1024)
		r.EnqueueRequest(s, echoType, req, resp, func(err error) {
			if err != nil {
				t.Errorf("size %d: %v", sz, err)
			}
			if s.Credits() < 0 || s.Credits() > DefaultCredits {
				t.Errorf("credits out of range: %d", s.Credits())
			}
			done++
		})
	}
	e.sched.Run()
	if done != len(sizes) {
		t.Fatalf("completed %d of %d", done, len(sizes))
	}
	if s.Credits() != DefaultCredits {
		t.Fatalf("credits leaked: %d", s.Credits())
	}
}

func TestPacketLossRecovery(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, func(c *simnet.Config) { c.LossRate = 0.05 })
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	const n = 100
	done := 0
	for i := 0; i < n; i++ {
		req := r.Alloc(32)
		resp := r.Alloc(32)
		r.EnqueueRequest(s, echoType, req, resp, func(err error) {
			if err != nil {
				t.Errorf("rpc: %v", err)
			}
			done++
		})
	}
	e.sched.Run()
	if done != n {
		t.Fatalf("completed %d of %d under 5%% loss", done, n)
	}
	if r.Stats.Retransmits == 0 {
		t.Fatal("expected go-back-N retransmissions under 5% loss")
	}
	if r.Stats.DMAFlushes != r.Stats.Retransmits {
		t.Fatalf("each rollback must flush the DMA queue: %d flushes, %d rollbacks",
			r.Stats.DMAFlushes, r.Stats.Retransmits)
	}
}

func TestLargeTransferUnderHeavyLoss(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, func(c *simnet.Config) { c.LossRate = 0.02 })
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	payload := bytesPattern(500_000) // ~489 packets each way
	out, err := e.call(t, r, s, payload, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at byte %d after loss recovery", i)
		}
	}
}

func TestAtMostOnceExecution(t *testing.T) {
	runs := 0
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		runs++
		out := ctx.AllocResponse(4)
		copy(out, "okay")
		ctx.EnqueueResponse()
	}})
	e := newEnv(t, 2, nx, nil, func(c *simnet.Config) { c.LossRate = 0.08 })
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		req := r.Alloc(32)
		resp := r.Alloc(32)
		r.EnqueueRequest(s, echoType, req, resp, func(err error) {
			if err != nil {
				t.Errorf("rpc: %v", err)
			}
			done++
		})
	}
	e.sched.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if runs != n {
		t.Fatalf("handler ran %d times for %d RPCs (at-most-once violated)", runs, n)
	}
	if r.Stats.Retransmits == 0 {
		t.Fatal("test needs retransmissions to be meaningful")
	}
}

func TestReorderingTreatedAsLoss(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, func(c *simnet.Config) { c.ReorderRate = 0.05 })
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	payload := bytesPattern(50_000)
	out, err := e.call(t, r, s, payload, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at byte %d under reordering", i)
		}
	}
}

func TestWorkerHandlerDoesNotBlockDispatch(t *testing.T) {
	const slowType, fastType = 2, 3
	nx := NewNexus()
	nx.Register(slowType, Handler{
		RunInWorker: true,
		Cost:        100 * sim.Microsecond,
		Fn: func(ctx *ReqContext) {
			out := ctx.AllocResponse(4)
			copy(out, "slow")
			ctx.EnqueueResponse()
		},
	})
	nx.Register(fastType, Handler{Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(4)
		copy(out, "fast")
		ctx.EnqueueResponse()
	}})
	e := newEnv(t, 2, nx, nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())

	var slowAt, fastAt sim.Time
	reqS, respS := r.Alloc(8), r.Alloc(8)
	reqF, respF := r.Alloc(8), r.Alloc(8)
	r.EnqueueRequest(s, slowType, reqS, respS, func(error) { slowAt = e.sched.Now() })
	r.EnqueueRequest(s, fastType, reqF, respF, func(error) { fastAt = e.sched.Now() })
	e.sched.Run()
	if slowAt == 0 || fastAt == 0 {
		t.Fatal("an RPC did not complete")
	}
	if fastAt >= slowAt {
		t.Fatalf("dispatch RPC (%v) blocked behind worker RPC (%v)", fastAt, slowAt)
	}
	if slowAt < 100*sim.Microsecond {
		t.Fatalf("worker RPC completed at %v, before its 100µs handler could run", slowAt)
	}
	if e.rpcs[1].Stats.WorkerHandlers != 1 {
		t.Fatalf("worker handlers = %d", e.rpcs[1].Stats.WorkerHandlers)
	}
}

func TestNestedRPC(t *testing.T) {
	// Node 1's handler issues its own RPC to node 2 before responding
	// (§3.1: "We allow nested RPCs").
	const frontType = 7
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})

	sched := sim.NewScheduler(1)
	fab, err := simnet.New(sched, simnet.Config{Profile: simnet.CX4(), Topology: simnet.SingleSwitch(3)})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(node int, nx *Nexus) *Rpc {
		return NewRpc(nx, Config{
			Transport: fab.AttachEndpoint(node), Clock: sched, Sched: sched, LinkRateGbps: 25,
		})
	}
	backend := mk(2, nx)
	_ = backend

	var middle *Rpc
	var backendSess *Session
	nxMid := NewNexus()
	nxMid.Register(frontType, Handler{Fn: func(ctx *ReqContext) {
		// Defer the response until the nested RPC completes.
		in := make([]byte, len(ctx.Req))
		copy(in, ctx.Req)
		nreq := middle.Alloc(len(in))
		copy(nreq.Data(), in)
		nresp := middle.Alloc(64)
		middle.EnqueueRequest(backendSess, echoType, nreq, nresp, func(err error) {
			if err != nil {
				t.Errorf("nested rpc: %v", err)
			}
			out := ctx.AllocResponse(nresp.MsgSize())
			copy(out, nresp.Data())
			ctx.EnqueueResponse()
			middle.Free(nreq)
			middle.Free(nresp)
		})
	}})
	middle = mk(1, nxMid)
	backendSess, err = middle.CreateSession(backend.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	client := mk(0, echoNexus())
	cs, _ := client.CreateSession(middle.LocalAddr())

	req := client.Alloc(5)
	copy(req.Data(), "chain")
	resp := client.Alloc(64)
	var got string
	client.EnqueueRequest(cs, frontType, req, resp, func(err error) {
		if err != nil {
			t.Errorf("front rpc: %v", err)
		}
		got = string(resp.Data())
	})
	sched.Run()
	if got != "chain" {
		t.Fatalf("nested chain echo = %q", got)
	}
}

func TestResponseTooBig(t *testing.T) {
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		out := ctx.AllocResponse(4096)
		out[0] = 1
		ctx.EnqueueResponse()
	}})
	e := newEnv(t, 2, nx, nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	req := r.Alloc(8)
	resp := r.Alloc(16) // too small for the 4096-byte response
	var gotErr error
	r.EnqueueRequest(s, echoType, req, resp, func(err error) { gotErr = err })
	e.sched.Run()
	if !errors.Is(gotErr, ErrRespTooBig) {
		t.Fatalf("err = %v, want ErrRespTooBig", gotErr)
	}
}

func TestRequestTooBig(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	req := msgbuf.NewBuf(DefaultMaxMsg+1, r.DataPerPkt())
	resp := r.Alloc(16)
	var gotErr error
	r.EnqueueRequest(s, echoType, req, resp, func(err error) { gotErr = err })
	e.sched.Run()
	if !errors.Is(gotErr, ErrReqTooBig) {
		t.Fatalf("err = %v, want ErrReqTooBig", gotErr)
	}
}

func TestSessionLimit(t *testing.T) {
	// |RQ|/C = 64/32 = 2 sessions max (§4.3.1).
	e := newEnv(t, 2, echoNexus(), func(c *Config) { c.RQSize = 64 }, nil)
	r := e.rpcs[0]
	remote := e.rpcs[1].LocalAddr()
	if _, err := r.CreateSession(remote); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateSession(remote); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateSession(remote); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third session: err = %v, want ErrTooManySessions", err)
	}
}

func TestDestroySessionFailsPending(t *testing.T) {
	// Server that never responds: requests stay pending until destroy.
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) { /* never responds */ }})
	e := newEnv(t, 2, nx, func(c *Config) { c.RTO = sim.Second }, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	req, resp := r.Alloc(8), r.Alloc(8)
	var gotErr error
	r.EnqueueRequest(s, echoType, req, resp, func(err error) { gotErr = err })
	e.sched.RunUntil(100 * sim.Microsecond)
	r.DestroySession(s)
	e.sched.RunUntil(200 * sim.Microsecond)
	if !errors.Is(gotErr, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", gotErr)
	}
	// New requests on the dead session fail immediately.
	var err2 error
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { err2 = err })
	if !errors.Is(err2, ErrSessionClosed) {
		t.Fatalf("post-destroy err = %v", err2)
	}
}

func TestFailPeerInvokesContinuationsWithError(t *testing.T) {
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) { /* black hole */ }})
	e := newEnv(t, 2, nx, func(c *Config) { c.RTO = sim.Second }, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	errs := make([]error, 0, 3)
	for i := 0; i < 3; i++ {
		r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { errs = append(errs, err) })
	}
	e.sched.RunUntil(50 * sim.Microsecond)
	r.FailPeer(s.Remote().Node)
	e.sched.RunUntil(100 * sim.Microsecond)
	if len(errs) != 3 {
		t.Fatalf("got %d continuations, want 3", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrPeerFailure) {
			t.Fatalf("err = %v, want ErrPeerFailure", err)
		}
	}
}

func TestHeartbeatDetectsDeadPeer(t *testing.T) {
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) { /* black hole */ }})
	e := newEnv(t, 2, nx, func(c *Config) {
		c.RTO = 10 * sim.Second                   // RTO out of the way
		c.HeartbeatInterval = 1 * sim.Millisecond // failure after 5 ms of silence
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	// Kill the server: close its endpoint so pings go unanswered.
	serverEp := e.rpcs[1].tr
	var gotErr error
	r.EnqueueRequest(s, echoType, r.Alloc(8), r.Alloc(8), func(err error) { gotErr = err })
	e.sched.RunUntil(2 * sim.Millisecond) // a few heartbeats flow
	serverEp.Close()
	e.sched.RunUntil(60 * sim.Millisecond)
	if !errors.Is(gotErr, ErrPeerFailure) {
		t.Fatalf("err = %v, want ErrPeerFailure after heartbeat timeout", gotErr)
	}
	if r.Stats.PeerFailures != 1 {
		t.Fatalf("peer failures = %d", r.Stats.PeerFailures)
	}
}

func TestRateLimiterPathWithBypassDisabled(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		c.Opts.DisableRateLimiterBypass = true
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	payload := bytesPattern(20_000)
	out, err := e.call(t, r, s, payload, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != payload[i] {
			t.Fatalf("corruption at %d via rate limiter path", i)
		}
	}
	if r.wheel.Inserted == 0 {
		t.Fatal("rate limiter was bypassed despite DisableRateLimiterBypass")
	}
	// Ownership invariant: no TX references remain after completion.
	if r.wheel.Len() != 0 {
		t.Fatalf("wheel still holds %d entries", r.wheel.Len())
	}
}

func TestOptsDisabledStillCorrect(t *testing.T) {
	// All common-case optimizations off: protocol must stay correct
	// (Table 3 measures performance, not correctness, of these paths).
	e := newEnv(t, 2, echoNexus(), func(c *Config) {
		c.Opts = Opts{
			DisableBatchedTimestamps: true,
			DisableTimelyBypass:      true,
			DisableRateLimiterBypass: true,
			DisableMultiPacketRQ:     true,
			DisablePreallocResponses: true,
			DisableZeroCopyRX:        true,
		}
	}, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	out, err := e.call(t, r, s, bytesPattern(3000), 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3000 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestCCDisabledStillCorrect(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), func(c *Config) { c.Opts.DisableCC = true }, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	out, err := e.call(t, r, s, bytesPattern(5000), 8192)
	if err != nil || len(out) != 5000 {
		t.Fatalf("err=%v len=%d", err, len(out))
	}
}

func TestNexusDoubleRegisterPanics(t *testing.T) {
	nx := NewNexus()
	nx.Register(1, Handler{Fn: func(*ReqContext) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("double Register should panic")
		}
	}()
	nx.Register(1, Handler{Fn: func(*ReqContext) {}})
}

func TestPreallocatedResponseReuse(t *testing.T) {
	// Many small responses on the same slot must reuse the
	// preallocated msgbuf: allocator sees no per-RPC churn (§4.3).
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	srv := e.rpcs[1]
	s, _ := r.CreateSession(srv.LocalAddr())
	for i := 0; i < 5; i++ {
		if _, err := e.call(t, r, s, []byte("tiny"), 64); err != nil {
			t.Fatal(err)
		}
	}
	if srv.alloc.Allocs != 0 {
		t.Fatalf("server allocated %d dynamic msgbufs for preallocable responses", srv.alloc.Allocs)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	for i := 0; i < 10; i++ {
		if _, err := e.call(t, r, s, []byte("x"), 16); err != nil {
			t.Fatal(err)
		}
	}
	if r.Stats.ReqsEnqueued != 10 || r.Stats.ReqsCompleted != 10 {
		t.Fatalf("stats: %+v", r.Stats)
	}
	if e.rpcs[1].Stats.HandlersRun != 10 {
		t.Fatalf("handlers run = %d", e.rpcs[1].Stats.HandlersRun)
	}
}

// TestGoroutineAPIsPanicUnderScheduler: the three calls that block a
// goroutine on the loop's progress refuse an endpoint whose loop only
// scheduler events run, all three alike.
func TestGoroutineAPIsPanicUnderScheduler(t *testing.T) {
	r := newEnv(t, 1, echoNexus(), nil, nil).rpcs[0]
	for name, fn := range map[string]func(){
		"WaitForWork":  func() { r.WaitForWork(0) },
		"RunEventLoop": func() { r.RunEventLoop(make(chan struct{})) },
		"drain":        func() { (&endpointGroup{rpcs: []*Rpc{r}}).drain(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a scheduler-driven endpoint should panic", name)
				}
			}()
			fn()
		}()
	}
}
