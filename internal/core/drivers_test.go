package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The differential test across the driver seam: one scripted workload
// through a pair of endpoints the scheduler drives over simnet and
// through a pair a goroutine (the test's) drives over queueTransports
// with a manual clock. What an application can see must not depend on
// who runs the loop.

const (
	agreeDispatch = 1 // session 0's handler: runs in the dispatch context
	agreeWorker   = 2 // session 1's: the same handler, RunInWorker
	agreeSessions = 2
	agreeMTU      = 1472 // queueTransport's; the simulated fabric is set to it
)

// agreeSizes straddles every boundary of the packet math: empty, one
// byte, one packet to the byte, a byte more, three packets, and 64 KiB,
// which outruns the session's 32 credits in both directions.
func agreeSizes() []int {
	dpp := agreeMTU - wire.HeaderSize
	return []int{0, 1, dpp - 1, dpp, dpp + 1, 2*dpp + 7, 64 << 10}
}

// agreeRequests is how many requests the script issues: each size twice
// on every session.
func agreeRequests() uint64 { return uint64(agreeSessions * 2 * len(agreeSizes())) }

// agreeNexus answers a request with its bytes inverted. returned, if
// set, runs on the handler's goroutine after a worker handler's
// EnqueueResponse.
func agreeNexus(returned func()) *Nexus {
	answer := func(ctx *ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		for i, b := range ctx.Req {
			out[i] = ^b
		}
		ctx.EnqueueResponse()
	}
	nx := NewNexus()
	nx.Register(agreeDispatch, Handler{Fn: answer})
	nx.Register(agreeWorker, Handler{RunInWorker: true, Fn: func(ctx *ReqContext) {
		answer(ctx)
		if returned != nil {
			returned()
		}
	}})
	return nx
}

// agreeOutcome is what the application saw.
type agreeOutcome struct {
	Order     [agreeSessions][]int    // request indices in completion order
	Resp      [agreeSessions][][]byte // response bytes by request index
	Completed uint64
	Handlers  uint64
	Workers   uint64
}

// agreeEnqueue issues the whole script at once on every session — each
// size twice, 14 requests on 8 slots, so the backlog runs — and returns
// the outcome the continuations fill in. A session has one kind of
// handler: the order in which one session's requests complete is then
// fixed by the order of its packets alone, whereas with both kinds on
// one session it turns on whether a worker's response or the next RX
// burst reaches the server's loop first, which is the drivers' to
// decide (and the host's, over a real transport).
func agreeEnqueue(t *testing.T, cli *Rpc, sessions []*Session) *agreeOutcome {
	out := &agreeOutcome{}
	for si, s := range sessions {
		var script []int
		for _, size := range agreeSizes() {
			script = append(script, size, size)
		}
		out.Resp[si] = make([][]byte, len(script))
		for i, size := range script {
			req, resp := cli.Alloc(size), cli.Alloc(size)
			for k := range req.Data() {
				req.Data()[k] = byte(si*31 + i*7 + k)
			}
			cli.EnqueueRequest(s, uint8(agreeDispatch+si), req, resp, func(err error) {
				if err != nil {
					t.Errorf("session %d request %d: %v", si, i, err)
				}
				want := make([]byte, size)
				for k := range want {
					want[k] = ^byte(si*31 + i*7 + k)
				}
				if !bytes.Equal(resp.Data(), want) {
					t.Errorf("session %d request %d (%d B): response is not the request inverted", si, i, size)
				}
				out.Order[si] = append(out.Order[si], i)
				out.Resp[si][i] = append([]byte(nil), resp.Data()...)
			})
		}
	}
	return out
}

func (o *agreeOutcome) finish(t *testing.T, who string, cli, srv *Rpc) {
	o.Completed, o.Handlers, o.Workers = cli.Stats.ReqsCompleted, srv.Stats.HandlersRun, srv.Stats.WorkerHandlers
	if n := cli.Stats.Retransmits + srv.Stats.Retransmits; n != 0 {
		t.Errorf("%s: %d retransmits on a lossless wire", who, n)
	}
	if o.Completed != agreeRequests() {
		t.Fatalf("%s: %d requests completed, want %d", who, o.Completed, agreeRequests())
	}
}

func TestDriversAgree(t *testing.T) {
	// Scheduler-driven, over simnet.
	e := newEnv(t, 2, agreeNexus(nil), nil, func(c *simnet.Config) { c.Profile.MTU = agreeMTU })
	var ss []*Session
	for i := 0; i < agreeSessions; i++ {
		s, err := e.rpcs[0].CreateSession(e.rpcs[1].LocalAddr())
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	simOut := agreeEnqueue(t, e.rpcs[0], ss)
	e.sched.Run()
	simOut.finish(t, "scheduler-driven", e.rpcs[0], e.rpcs[1])

	// Goroutine-driven, by hand: a microsecond on the clock, a client
	// pass, a server pass, and then the worker handlers that pass handed
	// out are waited for, so that which pass runs their responses does
	// not depend on the host's scheduling. One worker: they return in
	// the order they were handed out, as the scheduler's do.
	returned := make(chan struct{}, 2*len(agreeSizes())) // session 1's requests: no handler ever blocks
	nx := agreeNexus(func() { returned <- struct{}{} })
	clk := &manualClock{t: sim.Millisecond}
	ct, st := newQueueTransport(), newQueueTransport()
	st.addr = transport.Addr{Node: 2}
	ct.peer, st.peer = st, ct
	cli := NewRpc(nx, Config{Transport: ct, Clock: clk})
	srv := NewRpc(nx, Config{Transport: st, Clock: clk})
	srv.pool = newWorkerPool(1)
	defer srv.pool.Close()
	ss = ss[:0]
	for i := 0; i < agreeSessions; i++ {
		s, err := cli.CreateSession(st.addr)
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	realOut := agreeEnqueue(t, cli, ss)
	for pass, waited := 0, uint64(0); cli.Stats.ReqsCompleted+cli.Stats.ReqsFailed < agreeRequests(); pass++ {
		if pass == 10000 {
			t.Fatalf("goroutine-driven: %d of %d requests after %d passes", cli.Stats.ReqsCompleted, agreeRequests(), pass)
		}
		clk.t += sim.Microsecond
		cli.RunEventLoopOnce()
		srv.RunEventLoopOnce()
		for ; waited < srv.Stats.WorkerHandlers; waited++ {
			<-returned
		}
	}
	realOut.finish(t, "goroutine-driven", cli, srv)

	if !reflect.DeepEqual(simOut, realOut) {
		for si := range simOut.Order {
			t.Errorf("session %d completion order:\nscheduler-driven %v\ngoroutine-driven %v", si, simOut.Order[si], realOut.Order[si])
		}
		t.Fatalf("the drivers disagree: completed %d/%d, handlers %d/%d, worker handlers %d/%d",
			simOut.Completed, realOut.Completed, simOut.Handlers, realOut.Handlers, simOut.Workers, realOut.Workers)
	}
}
