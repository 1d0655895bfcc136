package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestDeterministicRuns verifies the end-to-end stack (scheduler,
// fabric, endpoint CPU model, protocol) is reproducible: two runs with
// the same seed produce identical stats and completion times.
func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, Stats) {
		e := newEnv(t, 3, echoNexus(), nil, func(c *simnet.Config) { c.LossRate = 0.03 })
		r := e.rpcs[0]
		s1, _ := r.CreateSession(e.rpcs[1].LocalAddr())
		s2, _ := r.CreateSession(e.rpcs[2].LocalAddr())
		var last sim.Time
		for i := 0; i < 30; i++ {
			sess := s1
			if i%2 == 0 {
				sess = s2
			}
			req := r.Alloc(100 * (i + 1))
			resp := r.Alloc(8192)
			r.EnqueueRequest(sess, echoType, req, resp, func(error) { last = e.sched.Now() })
		}
		e.sched.Run()
		return last, r.Stats
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: %v/%+v vs %v/%+v", t1, s1, t2, s2)
	}
}

// TestEchoIntegrityProperty: random request sizes echo back intact
// even with loss injection (go-back-N end to end).
func TestEchoIntegrityProperty(t *testing.T) {
	f := func(sizesRaw []uint16, seedRaw uint8) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 12 {
			sizesRaw = sizesRaw[:12]
		}
		sched := sim.NewScheduler(int64(seedRaw) + 1)
		fab, err := simnet.New(sched, simnet.Config{
			Profile: simnet.CX4(), Topology: simnet.SingleSwitch(2), LossRate: 0.01,
		})
		if err != nil {
			return false
		}
		nx := echoNexus()
		mk := func(n int) *Rpc {
			return NewRpc(nx, Config{Transport: fab.AttachEndpoint(n), Clock: sched, Sched: sched, LinkRateGbps: 25})
		}
		cli, srv := mk(0), mk(1)
		sess, err := cli.CreateSession(srv.LocalAddr())
		if err != nil {
			return false
		}
		okAll := true
		for _, raw := range sizesRaw {
			size := int(raw)%20000 + 1
			req := cli.Alloc(size)
			for i := range req.Data() {
				req.Data()[i] = byte(i * 7)
			}
			resp := cli.Alloc(32 * 1024)
			cli.EnqueueRequest(sess, echoType, req, resp, func(err error) {
				if err != nil || resp.MsgSize() != size {
					okAll = false
					return
				}
				for i, v := range resp.Data() {
					if v != byte(i*7) {
						okAll = false
						return
					}
				}
			})
		}
		sched.Run()
		return okAll && cli.Stats.ReqsCompleted == uint64(len(sizesRaw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCongestionControlEngages: a many-to-one burst must pull Timely's
// rate below line rate and route packets through the Carousel wheel.
func TestCongestionControlEngages(t *testing.T) {
	const n = 10
	e := newEnv(t, n+1, echoNexus(), func(c *Config) {
		c.TimelyMinRTT = 6 * sim.Microsecond
	}, func(c *simnet.Config) {
		c.Jitter = 8 * sim.Microsecond
	})
	victim := e.rpcs[n]
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		s, err := e.rpcs[i].CreateSession(victim.LocalAddr())
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		cli := e.rpcs[i]
		// Back-to-back large requests, like the incast drivers.
		var issue func()
		req := cli.Alloc(1 << 20)
		resp := cli.Alloc(64)
		issue = func() {
			cli.EnqueueRequest(s, echoType, req, resp, func(err error) {
				if e.sched.Now() < 40*sim.Millisecond {
					issue()
				}
			})
		}
		issue()
	}
	e.sched.RunUntil(40 * sim.Millisecond)
	throttled := 0
	paced := uint64(0)
	for i, s := range sessions {
		if s.CCRate() < 25e9/8 {
			throttled++
		}
		paced += e.rpcs[i].wheel.Inserted
	}
	if throttled < n/2 {
		t.Fatalf("only %d/%d sessions throttled under incast", throttled, n)
	}
	if paced == 0 {
		t.Fatal("no packets went through the rate limiter under congestion")
	}
}

// TestBacklogFIFO: requests queued beyond the slot limit complete in
// issue order per session.
func TestBacklogFIFO(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	var order []int
	const n = 30
	for i := 0; i < n; i++ {
		i := i
		req := r.Alloc(8)
		resp := r.Alloc(8)
		r.EnqueueRequest(s, echoType, req, resp, func(error) { order = append(order, i) })
	}
	e.sched.Run()
	if len(order) != n {
		t.Fatalf("completed %d", len(order))
	}
	// Backlogged requests (index ≥ 8) must complete in issue order
	// relative to each other.
	prev := -1
	for _, v := range order {
		if v < DefaultNumSlots {
			continue
		}
		if v < prev {
			t.Fatalf("backlog reordered: %v", order)
		}
		prev = v
	}
}

// TestZeroSizeMessages: empty request and response bodies are legal.
func TestZeroSizeMessages(t *testing.T) {
	nx := NewNexus()
	nx.Register(echoType, Handler{Fn: func(ctx *ReqContext) {
		if len(ctx.Req) != 0 {
			t.Errorf("req len = %d", len(ctx.Req))
		}
		ctx.AllocResponse(0)
		ctx.EnqueueResponse()
	}})
	e := newEnv(t, 2, nx, nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	req := r.Alloc(0)
	resp := r.Alloc(0)
	done := false
	r.EnqueueRequest(s, echoType, req, resp, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done = true
	})
	e.sched.Run()
	if !done {
		t.Fatal("zero-size RPC did not complete")
	}
}

// TestMaxSizeMessage: the largest supported message (8 MB) transfers
// correctly in both directions.
func TestMaxSizeMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("8 MB transfer")
	}
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	size := DefaultMaxMsg
	req := r.Alloc(size)
	data := req.Data()
	for i := 0; i < size; i += 4096 {
		data[i] = byte(i / 4096)
	}
	resp := r.Alloc(size)
	var gotErr error
	done := false
	r.EnqueueRequest(s, echoType, req, resp, func(err error) { gotErr = err; done = true })
	e.sched.Run()
	if !done || gotErr != nil {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
	if resp.MsgSize() != size {
		t.Fatalf("resp size = %d", resp.MsgSize())
	}
	for i := 0; i < size; i += 4096 {
		if resp.Data()[i] != byte(i/4096) {
			t.Fatalf("corruption at %d", i)
		}
	}
}

// TestSessionsIsolated: loss on one session's traffic does not corrupt
// another session's RPCs on the same endpoint.
func TestSessionsIsolated(t *testing.T) {
	e := newEnv(t, 3, echoNexus(), nil, func(c *simnet.Config) { c.LossRate = 0.05 })
	r := e.rpcs[0]
	s1, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	s2, _ := r.CreateSession(e.rpcs[2].LocalAddr())
	done := 0
	for i := 0; i < 50; i++ {
		sess := s1
		if i%2 == 0 {
			sess = s2
		}
		req := r.Alloc(64)
		req.Data()[0] = byte(i)
		resp := r.Alloc(64)
		want := byte(i)
		r.EnqueueRequest(sess, echoType, req, resp, func(err error) {
			if err != nil {
				t.Errorf("rpc %d: %v", want, err)
			} else if resp.Data()[0] != want {
				t.Errorf("cross-session corruption: got %d want %d", resp.Data()[0], want)
			}
			done++
		})
	}
	e.sched.Run()
	if done != 50 {
		t.Fatalf("done = %d", done)
	}
}

// TestAllocatorReuseAcrossRPCs: request buffers freed after completion
// are recycled by the pooled allocator.
func TestAllocatorReuseAcrossRPCs(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	s, _ := r.CreateSession(e.rpcs[1].LocalAddr())
	for i := 0; i < 20; i++ {
		if _, err := e.call(t, r, s, []byte("pool me"), 32); err != nil {
			t.Fatal(err)
		}
	}
	if r.alloc.PoolHits < 30 { // 2 buffers per call after the first
		t.Fatalf("pool hits = %d, want ≥30", r.alloc.PoolHits)
	}
}

// TestCRsFlowForMultiPacketRequests: the server returns one explicit
// credit per non-final request packet (§5.1).
func TestCRsFlowForMultiPacketRequests(t *testing.T) {
	e := newEnv(t, 2, echoNexus(), nil, nil)
	r := e.rpcs[0]
	srv := e.rpcs[1]
	s, _ := r.CreateSession(srv.LocalAddr())
	// 5 packets: 4 CRs + 1 response expected from the server.
	if _, err := e.call(t, r, s, bytesPattern(5*1024), 8192); err != nil {
		t.Fatal(err)
	}
	// Server tx: 4 CRs + 5 response packets... response is 5 pkts, of
	// which 4 are RFR-triggered. Total server tx = 4 CR + 5 resp = 9.
	if srv.Stats.PktsTx != 9 {
		t.Fatalf("server sent %d packets, want 9 (4 CR + 5 resp)", srv.Stats.PktsTx)
	}
	// Client tx: 5 req + 4 RFR.
	if r.Stats.PktsTx != 9 {
		t.Fatalf("client sent %d packets, want 9 (5 req + 4 RFR)", r.Stats.PktsTx)
	}
}
