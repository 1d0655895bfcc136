package erpc_test

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/erpc"
)

// TestDrainUnderLoad drives the graceful-drain path over real UDP: a
// multi-endpoint server with slow worker handlers takes a burst of
// multi-packet requests, and Server.Drain fires while a good fraction
// are still in flight. The contract under test (the SIGTERM path of
// cmd/erpc-server):
//
//   - every request admitted before the drain runs to completion —
//     worker handlers finish, queued zero-copy response aliases flush,
//     responses reach the client;
//   - requests arriving during the drain draw explicit rejects and
//     resolve at the client (ErrServerOverloaded once the reject budget
//     exhausts, or ErrTimeout for stragglers that outlive the server)
//     instead of hanging;
//   - nothing executes twice across the reject/retry churn; and
//   - the server's pooled msgbufs balance: every multi-packet request
//     buffer allocated by admitted work was freed (no leak on the
//     drain path). The erpcdebug leg additionally asserts no transport
//     frame is leaked or double-released.
//
// The scenario runs once per UDP syscall engine.
func TestDrainUnderLoad(t *testing.T) {
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) { runDrainUnderLoad(t, engine) })
	}
}

func runDrainUnderLoad(t *testing.T, engine string) {
	const (
		srvEps  = 2
		nreqs   = 48
		minOK   = 8
		reqType = 1
		reqSize = 4000 // 3 packets: exercises CRs and the reqBuf pool
	)

	var mu sync.Mutex
	execs := map[uint32]int{}
	nx := erpc.NewNexus()
	nx.Register(reqType, erpc.Handler{RunInWorker: true, Fn: func(ctx *erpc.ReqContext) {
		id := binary.BigEndian.Uint32(ctx.Req)
		mu.Lock()
		execs[id]++
		mu.Unlock()
		time.Sleep(time.Millisecond) // hold the request in flight
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
	srvCfgs := make([]erpc.Config, srvEps)
	for i, tr := range srvTrs {
		srvCfgs[i] = erpc.Config{Transport: tr, Clock: erpc.NewWallClock()}
	}
	// Tight client budgets so requests caught by the drain resolve
	// quickly: a few rejects, then ErrServerOverloaded; a few silent
	// timeouts after the server stops, then ErrTimeout.
	cliCfgs := []erpc.Config{{
		Transport:      cliTrs[0],
		Clock:          erpc.NewWallClock(),
		RTO:            erpc.Time(2 * time.Millisecond),
		MaxRetransmits: 5,
		MaxRejects:     3,
	}}

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

	var done, okCount, rejCount, toCount atomic.Int32
	finished := make(chan struct{})
	r := client.Rpc(0)
	r.Post(func() {
		for i := 0; i < nreqs; i++ {
			req, resp := r.Alloc(reqSize), r.Alloc(reqSize)
			binary.BigEndian.PutUint32(req.Data(), uint32(i))
			r.EnqueueRequest(sessions[i%len(sessions)], reqType, req, resp, func(err error) {
				switch {
				case err == nil:
					okCount.Add(1)
				case errors.Is(err, erpc.ErrServerOverloaded):
					rejCount.Add(1)
				case errors.Is(err, erpc.ErrTimeout):
					toCount.Add(1)
				default:
					t.Errorf("rpc %d: unexpected error %v", i, err)
				}
				if done.Add(1) == nreqs {
					close(finished)
				}
			})
		}
	})

	// Let a meaningful slice of the burst complete, then drain with the
	// rest still in flight.
	deadline := time.Now().Add(10 * time.Second)
	for okCount.Load() < minOK {
		if time.Now().After(deadline) {
			t.Fatalf("only %d RPCs completed before drain trigger", okCount.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if !server.Drain(10 * time.Second) {
		t.Fatal("server did not drain within the deadline")
	}

	// Every request must resolve one way or the other — no RPC may hang
	// across a drain.
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatalf("drain left RPCs hanging: %d of %d resolved (ok=%d rej=%d to=%d)",
			done.Load(), nreqs, okCount.Load(), rejCount.Load(), toCount.Load())
	}
	client.Stop()
	t.Logf("drain split: %d ok, %d overloaded, %d timed out", okCount.Load(), rejCount.Load(), toCount.Load())

	// At-most-once across reject/retry churn, and every successful
	// response implies exactly one execution.
	mu.Lock()
	for id, n := range execs {
		if n > 1 {
			t.Fatalf("request %d executed %d times across the drain (at-most-once violated)", id, n)
		}
	}
	executed := len(execs)
	mu.Unlock()
	if int32(executed) < okCount.Load() {
		t.Fatalf("%d successful responses but only %d executions", okCount.Load(), executed)
	}

	// Leak audit: multi-packet requests allocate a pooled reassembly
	// msgbuf per admitted request; drain must have freed every one.
	var allocs, frees uint64
	for i := 0; i < server.NumEndpoints(); i++ {
		a, f := server.Rpc(i).AllocBalance()
		allocs += a
		frees += f
	}
	if allocs != frees {
		t.Fatalf("server msgbuf leak across drain: %d allocs, %d frees", allocs, frees)
	}
	if allocs == 0 {
		t.Fatal("test expected pooled request buffers to be exercised")
	}
	st := server.Stats()
	if st.RejectsTx == 0 && rejCount.Load() > 0 {
		t.Fatal("client saw overload failures but server counted no rejects")
	}
}
