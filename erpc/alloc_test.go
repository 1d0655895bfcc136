package erpc_test

import (
	"testing"
	"time"

	"repro/erpc"
	"repro/internal/transport"
)

// TestSmallRPCAllocFree is the allocation-regression guard for the
// burst datapath: a small single-packet RPC over real UDP loopback
// must run allocation-free in steady state (paper §4.2-4.3: pooled
// msgbufs, recycled RX/TX frame buffers, preallocated responses). The
// whole round trip is measured — client TX batch, UDP socket I/O on
// both sides, server RX burst, handler dispatch, response path, client
// completion — including the runtime's netpoller, since
// testing.AllocsPerRun counts process-wide mallocs.
//
// The guard runs once per UDP syscall engine: the batched
// sendmmsg/recvmmsg datapath must be exactly as allocation-free as the
// per-packet fallback (its mmsghdr/iovec arrays and syscall closures
// are preallocated at engine construction).
func TestSmallRPCAllocFree(t *testing.T) {
	if transport.DebugEnabled {
		t.Skip("erpcdebug sanitizer bookkeeping allocates; zero-alloc contract holds in release builds only")
	}
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) { runSmallRPCAllocFree(t, engine) })
	}
	// The sharded datapath must be exactly as allocation-free: the
	// server side listens on SO_REUSEPORT shards (or the per-port
	// fallback) and serves the client's flow on whichever shard the
	// kernel picked, over each shard's private socket and pool.
	t.Run("sharded-2", func(t *testing.T) { runSmallRPCAllocFreeSharded(t, 2) })
}

// runSmallRPCAllocFreeSharded is the Shards > 1 variant: the server is
// a sharded listener and every shard's event loop runs each iteration,
// so the measurement covers shard placement, the lazily-created
// server session on the serving shard, and the per-shard pools.
func runSmallRPCAllocFreeSharded(t *testing.T, shards int) {
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
	cliTr, err := erpc.NewUDPTransport(erpc.Addr{Node: 2, Port: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cliTr.Close()
	if err := erpc.AddPeersFrom([]*transport.UDP{cliTr}, srvTrs); err != nil {
		t.Fatal(err)
	}
	if err := erpc.AddPeersFrom(srvTrs, []*transport.UDP{cliTr}); err != nil {
		t.Fatal(err)
	}

	// All endpoints are driven manually from this goroutine, which is
	// therefore the dispatch context of the client and every shard.
	srvs := make([]*erpc.Rpc, shards)
	for i, tr := range srvTrs {
		srvs[i] = erpc.NewRpc(nx, erpc.Config{Transport: tr, Clock: erpc.NewWallClock()})
	}
	cli := erpc.NewRpc(nx, erpc.Config{Transport: cliTr, Clock: erpc.NewWallClock()})
	sess, err := cli.CreateSession(erpc.Addr{Node: 1, Port: 0})
	if err != nil {
		t.Fatal(err)
	}

	req, resp := cli.Alloc(32), cli.Alloc(32)
	for i := range req.Data() {
		req.Data()[i] = byte(i)
	}
	var done bool
	var rpcErr error
	cont := func(err error) { done, rpcErr = true, err }

	oneRPC := func() {
		done = false
		cli.EnqueueRequest(sess, 1, req, resp, cont)
		for spins := 0; !done; spins++ {
			prog := cli.RunEventLoopOnce()
			for _, srv := range srvs {
				prog = srv.RunEventLoopOnce() || prog
			}
			if spins > 1_000_000 {
				t.Fatal("RPC did not complete")
			}
			if !prog {
				cli.WaitForWork(50 * time.Microsecond)
			}
		}
		if rpcErr != nil {
			t.Fatal(rpcErr)
		}
	}

	for i := 0; i < 200; i++ {
		oneRPC()
	}

	avg := testing.AllocsPerRun(200, oneRPC)
	t.Logf("allocs/op = %.3f (shards = %d)", avg, shards)
	if avg >= 1.0 {
		t.Fatalf("sharded small-RPC hot path allocates %.3f times per op, want ~0", avg)
	}
}

func runSmallRPCAllocFree(t *testing.T, engine string) {
	p := newEchoPair(t, engine)
	req, resp := p.cli.Alloc(32), p.cli.Alloc(32)
	for i := range req.Data() {
		req.Data()[i] = byte(i)
	}
	var done bool
	var rpcErr error
	cont := func(err error) { done, rpcErr = true, err }

	oneRPC := func() {
		done = false
		p.cli.EnqueueRequest(p.sess, 1, req, resp, cont)
		for spins := 0; !done; spins++ {
			if spins > 1_000_000 {
				t.Fatal("RPC did not complete")
			}
			p.poll()
		}
		if rpcErr != nil {
			t.Fatal(rpcErr)
		}
	}

	// Warm up: prime the msgbuf pools, TX/RX frame pools, the lazy
	// server-side session, the preallocated response buffer and any
	// runtime-internal lazy state.
	for i := 0; i < 200; i++ {
		oneRPC()
	}

	avg := testing.AllocsPerRun(200, oneRPC)
	t.Logf("allocs/op = %.3f", avg)
	// Target ~0. The bound leaves headroom for rare runtime-internal
	// allocations (netpoll, scheduler growth) without letting a real
	// per-RPC allocation (≥ 1.0/op) slip through.
	if avg >= 1.0 {
		t.Fatalf("small-RPC hot path allocates %.3f times per op, want ~0", avg)
	}
}
