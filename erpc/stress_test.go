package erpc_test

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/erpc"
)

// TestUDPAdversity runs the multi-endpoint runtime over real UDP with
// fault injection on both sides of the wire: 5% drops, 5% duplicates,
// 5% reordering, in each direction, with a constant-rate Chaos script
// wrapping the burst datapath (the core calls SendBurst/RecvBurst, so
// every RX/TX burst passes through the fault lottery). A slice of the
// requests are multi-packet, so whole data bursts — not just single
// frames — cross the faulty wire. It asserts the two properties the paper's protocol
// guarantees over an arbitrarily bad datagram network (§5.3):
// at-most-once handler execution (no request ever executes twice,
// despite duplicates and retransmissions) and eventual completion of
// every RPC.
//
// The whole scenario runs once per UDP syscall engine, so the batched
// sendmmsg/recvmmsg path faces the same fault lottery as the portable
// per-packet fallback.
func TestUDPAdversity(t *testing.T) {
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) { runUDPAdversity(t, engine) })
	}
}

func runUDPAdversity(t *testing.T, engine string) {
	const (
		srvEps  = 2
		nreqs   = 300
		reqType = 1
		bigSize = 4000 // multi-packet: 3 frames at the UDP MTU
	)
	bigReq := func(i int) bool { return i%8 == 7 }

	// The handler records executions per request id; ids are unique,
	// so any count above 1 is an at-most-once violation. The mutex
	// makes the map safe across the server's dispatch goroutines. The
	// full request is echoed, so multi-packet requests produce
	// multi-packet responses (exercising RFRs under faults).
	var mu sync.Mutex
	execs := map[uint32]int{}
	nx := erpc.NewNexus()
	nx.Register(reqType, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		id := binary.BigEndian.Uint32(ctx.Req)
		mu.Lock()
		execs[id]++
		mu.Unlock()
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})

	srvTrs := listenUDPEngine(t, engine, 1, srvEps)
	cliTrs := listenUDPEngine(t, engine, 100, 1)
	for _, s := range srvTrs {
		if err := erpc.AddPeerAll(cliTrs, s.LocalAddr(), s.BoundAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cliTrs {
		if err := erpc.AddPeerAll(srvTrs, c.LocalAddr(), c.BoundAddr().String()); err != nil {
			t.Fatal(err)
		}
	}

	// Wrap every socket in the fault injector — one unbounded phase, so
	// the rates hold for the whole run whatever the clock says; both
	// directions of the session see drops, dups and reordering.
	faults := []erpc.ChaosPhase{{Dur: math.MaxInt64, Drop: 0.05, Dup: 0.05, Reorder: 0.05}}
	noClock := func() int64 { return 0 }
	srvCfgs := make([]erpc.Config, srvEps)
	for i, tr := range srvTrs {
		f := erpc.NewChaosTransport(tr, int64(10+i), noClock, faults)
		srvCfgs[i] = erpc.Config{Transport: f, Clock: erpc.NewWallClock()}
		defer f.Close()
	}
	cliFault := erpc.NewChaosTransport(cliTrs[0], 99, noClock, faults)
	defer cliFault.Close()
	cliCfgs := []erpc.Config{{Transport: cliFault, Clock: erpc.NewWallClock()}}

	server := erpc.NewServer(nx, srvCfgs, 2)
	client := erpc.NewClient(nx, cliCfgs)
	var sessions []*erpc.Session
	for k := 0; k < srvEps; k++ {
		s, err := client.CreateSession(0, server.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	server.Start()
	client.Start()

	var done atomic.Int32
	finished := make(chan struct{})
	r := client.Rpc(0)
	r.Post(func() {
		for i := 0; i < nreqs; i++ {
			size := 4
			if bigReq(i) {
				size = bigSize
			}
			req, resp := r.Alloc(size), r.Alloc(size)
			binary.BigEndian.PutUint32(req.Data(), uint32(i))
			r.EnqueueRequest(sessions[i%len(sessions)], reqType, req, resp, func(err error) {
				if err != nil {
					t.Errorf("rpc %d: %v", i, err)
				}
				if done.Add(1) == nreqs {
					close(finished)
				}
			})
		}
	})

	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("timed out: %d of %d RPCs completed under injected faults", done.Load(), nreqs)
	}
	client.Stop()
	server.Stop()

	// Eventual completion: all RPCs done (checked above). At-most-once:
	// every id executed exactly once — never twice, despite duplicated
	// and retransmitted request packets.
	mu.Lock()
	defer mu.Unlock()
	if len(execs) != nreqs {
		t.Fatalf("executed %d distinct requests, want %d", len(execs), nreqs)
	}
	for id, n := range execs {
		if n != 1 {
			t.Fatalf("request %d executed %d times (at-most-once violated)", id, n)
		}
	}

	// The run must have actually exercised the fault paths — and the
	// burst datapath: the core's TX batches go through Chaos.SendBurst
	// and must have carried multi-frame bursts (multi-packet requests
	// send several data packets per event-loop iteration).
	if cliFault.Drops.Load() == 0 || cliFault.Dups.Load() == 0 || cliFault.Reorders.Load() == 0 {
		t.Fatalf("fault injector idle: drops=%d dups=%d reorders=%d",
			cliFault.Drops.Load(), cliFault.Dups.Load(), cliFault.Reorders.Load())
	}
	if client.Stats().Retransmits == 0 {
		t.Fatal("expected go-back-N retransmissions under injected loss")
	}
	cs := client.Stats()
	if cs.TxBursts == 0 || cliFault.Bursts.Load() == 0 {
		t.Fatalf("burst path idle: client TxBursts=%d, chaos SendBursts=%d", cs.TxBursts, cliFault.Bursts.Load())
	}
	if cs.PktsTx <= cs.TxBursts {
		t.Fatalf("no multi-frame bursts: %d packets in %d bursts", cs.PktsTx, cs.TxBursts)
	}

	// The requested syscall engine really ran, and on the batched engine
	// the run must have crossed the kernel in multi-message batches.
	eng, syscalls, batches := erpc.UDPSyscallStats(append(srvTrs, cliTrs...))
	if eng != engine {
		t.Fatalf("ran on engine %q, want %q", eng, engine)
	}
	if (engine == "mmsg" || engine == "gso") && batches == 0 {
		t.Fatalf("%s engine made no multi-message batches over %d syscalls", engine, syscalls)
	}
	if engine == "per-packet" && batches != 0 {
		t.Fatalf("per-packet engine reported %d mmsg batches", batches)
	}
}
