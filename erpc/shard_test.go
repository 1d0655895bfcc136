package erpc_test

import (
	"testing"
	"time"

	"repro/erpc"
)

// TestShardedServerEcho runs the full runtime over a sharded listener:
// a server whose endpoints share one SO_REUSEPORT UDP address (or the
// per-port fallback on builds without it), a client with its own
// socket, and echo RPCs on a session to every server endpoint. The
// kernel may place any client flow on any shard; lazily-created
// server-mode sessions make every shard a complete server, so all
// RPCs must finish regardless of placement. The shards run on the
// engine the host selects; the client socket runs on each engine in
// turn.
func TestShardedServerEcho(t *testing.T) {
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) { runShardedServerEcho(t, engine) })
	}
}

func runShardedServerEcho(t *testing.T, engine string) {
	const (
		shards  = 3
		perSess = 25
		reqSize = 32
	)
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})

	srvTrs, err := erpc.ListenUDPShards(1, "127.0.0.1:0", shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range srvTrs {
		defer tr.Close()
	}
	cliTrs := listenUDPEngine(t, engine, 2, 1)
	if err := erpc.AddPeersFrom(cliTrs, srvTrs); err != nil {
		t.Fatal(err)
	}
	if err := erpc.AddPeersFrom(srvTrs, cliTrs); err != nil {
		t.Fatal(err)
	}

	server := erpc.NewServer(nx, erpc.UDPConfigs(srvTrs), 1)
	client := erpc.NewClient(nx, erpc.UDPConfigs(cliTrs))
	sess := make([]*erpc.Session, shards)
	for k := range sess {
		s, err := client.CreateSession(0, server.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		sess[k] = s
	}
	server.Start()
	client.Start()
	defer client.Stop()
	defer server.Stop()

	r := client.Rpc(0)
	done := make(chan error, 1)
	r.Post(func() {
		completed := 0
		total := perSess * shards
		for k := 0; k < shards; k++ {
			k := k
			for i := 0; i < perSess; i++ {
				req, resp := r.Alloc(reqSize), r.Alloc(reqSize)
				for j := range req.Data() {
					req.Data()[j] = byte(i + k)
				}
				r.EnqueueRequest(sess[k], 1, req, resp, func(err error) {
					if err != nil {
						select {
						case done <- err:
						default:
						}
						return
					}
					if completed++; completed == total {
						done <- nil
					}
				})
			}
		}
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded echo RPCs did not complete")
	}

	// Every request was served by exactly one shard; with reuseport the
	// kernel picks which, but the totals must add up.
	server.Stop()
	var handled uint64
	for i := 0; i < server.NumEndpoints(); i++ {
		handled += server.Rpc(i).Stats.HandlersRun
	}
	if handled != perSess*shards {
		t.Fatalf("shards handled %d requests, want %d", handled, perSess*shards)
	}
}

// TestWindowBeyondSlotsFIFO is the regression test for the
// window ≥ NumSlots backlog cliff: with one more request in flight
// than the session has slots, a completion's continuation used to
// steal the freed slot from the queued (backlogged) request, starving
// the backlog head for the entire workload — its latency became the
// length of the run. EnqueueRequest now queues behind a non-empty
// backlog, so completions stay near issue order (bounded skew) while
// every request still completes, over real UDP loopback.
func TestWindowBeyondSlotsFIFO(t *testing.T) {
	const (
		window = erpc.DefaultNumSlots + 1
		total  = 200
	)
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	srvTr, err := erpc.NewUDPTransport(erpc.Addr{Node: 1, Port: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvTr.Close()
	cliTr, err := erpc.NewUDPTransport(erpc.Addr{Node: 2, Port: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cliTr.Close()
	if err := srvTr.AddPeer(cliTr.LocalAddr(), cliTr.BoundAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := cliTr.AddPeer(srvTr.LocalAddr(), srvTr.BoundAddr().String()); err != nil {
		t.Fatal(err)
	}
	srv := erpc.NewRpc(nx, erpc.Config{Transport: srvTr, Clock: erpc.NewWallClock()})
	cli := erpc.NewRpc(nx, erpc.Config{Transport: cliTr, Clock: erpc.NewWallClock()})
	sess, err := cli.CreateSession(srv.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}

	// Issue `total` echo RPCs keeping `window` in flight: every
	// completion re-issues, so one request is always backlogged.
	completionOf := make([]int, total) // issue index -> completion position
	for i := range completionOf {
		completionOf[i] = -1
	}
	issued, completed := 0, 0
	var issue func()
	issue = func() {
		if issued >= total {
			return
		}
		idx := issued
		issued++
		req, resp := cli.Alloc(16), cli.Alloc(16)
		cli.EnqueueRequest(sess, 1, req, resp, func(err error) {
			if err != nil {
				t.Errorf("rpc %d: %v", idx, err)
			}
			completionOf[idx] = completed
			completed++
			cli.Free(req)
			cli.Free(resp)
			issue()
		})
	}
	for w := 0; w < window; w++ {
		issue()
	}
	for spins := 0; completed < total; spins++ {
		prog := cli.RunEventLoopOnce()
		prog = srv.RunEventLoopOnce() || prog
		if spins > 5_000_000 {
			t.Fatalf("stalled: %d of %d completed (window %d > slots %d)",
				completed, total, window, erpc.DefaultNumSlots)
		}
		if !prog {
			cli.WaitForWork(50 * time.Microsecond)
		}
	}

	// FIFO within the window: a request issued i-th completes within a
	// small bounded distance of i. Before the fix the first backlogged
	// request (issue index NumSlots) completed dead last, skew ≈ total.
	maxSkew := 0
	for idx, pos := range completionOf {
		if pos < 0 {
			t.Fatalf("request %d never completed", idx)
		}
		skew := pos - idx
		if skew < 0 {
			skew = -skew
		}
		if skew > maxSkew {
			maxSkew = skew
		}
	}
	if maxSkew > 2*window {
		t.Fatalf("backlog starvation: completion skew %d exceeds %d (window %d, slots %d)",
			maxSkew, 2*window, window, erpc.DefaultNumSlots)
	}
}
