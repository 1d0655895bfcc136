package erpc_test

import (
	"sort"
	"testing"
	"time"

	"repro/erpc"
)

// startEchoPair starts a one-endpoint echo Server and a one-endpoint
// Client over UDP loopback on the named engine, each running its own
// RunEventLoop goroutine, default Config but for opts; both are stopped
// with the test.
func startEchoPair(t *testing.T, engine string, opts erpc.Opts) (*erpc.Server, *erpc.Client) {
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	srvTrs := listenUDPEngine(t, engine, 1, 1)
	cliTrs := listenUDPEngine(t, engine, 2, 1)
	if err := erpc.AddPeersFrom(srvTrs, cliTrs); err != nil {
		t.Fatal(err)
	}
	if err := erpc.AddPeersFrom(cliTrs, srvTrs); err != nil {
		t.Fatal(err)
	}
	server := erpc.NewServer(nx, []erpc.Config{{Transport: srvTrs[0], Clock: erpc.NewWallClock(), Opts: opts}}, 1)
	client := erpc.NewClient(nx, []erpc.Config{{Transport: cliTrs[0], Clock: erpc.NewWallClock(), Opts: opts}})
	server.Start()
	client.Start()
	t.Cleanup(server.Stop)
	t.Cleanup(client.Stop)
	return server, client
}

// echoRTTs runs total 32 B echoes from the client's endpoint 0, slots
// outstanding on each of sessions sessions, and returns the sorted round
// trips and the client's counters.
func echoRTTs(t *testing.T, server *erpc.Server, client *erpc.Client, sessions, slots, total int) ([]time.Duration, erpc.Stats) {
	r := client.Rpc(0)
	rtts := make([]time.Duration, 0, total)
	issued := 0
	finished := make(chan struct{})
	r.Post(func() {
		for i := 0; i < sessions; i++ {
			sess, err := client.CreateSession(0, server.Addrs())
			if err != nil {
				t.Error(err)
				close(finished)
				return
			}
			for k := 0; k < slots; k++ {
				req, resp := r.Alloc(32), r.Alloc(32)
				var issue func()
				issue = func() {
					if issued == total {
						return
					}
					issued++
					start := time.Now()
					r.EnqueueRequest(sess, 1, req, resp, func(err error) {
						if err != nil {
							t.Errorf("rpc %d: %v", len(rtts), err)
						}
						rtts = append(rtts, time.Since(start))
						if len(rtts) == total {
							close(finished)
							return
						}
						issue()
					})
				}
				issue()
			}
		}
	})
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("timed out") // rtts belongs to the dispatch goroutine until finished closes
	}
	client.Stop()
	server.Stop()
	if len(rtts) != total {
		t.FailNow()
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	return rtts, client.Stats()
}

// TestSerialEchoNotParkBound is the benchmark's echo_w1 as a test: one
// 32 B echo outstanding at a time between a Client and a Server that
// run their own RunEventLoop goroutines, default Config, UDP loopback,
// every engine. Nothing is congested, so congestion control must cost
// next to nothing (§5.2.2): a round trip is tens of microseconds. Once
// host jitter has pushed Timely off line rate every request goes
// through the rate limiter's wheel, and a loop that parks without
// looking at the wheel's deadline sends it a timer's length
// (≈ 1.1 ms) late — p75 1.2-1.5 ms, the mode this test keeps out.
func TestSerialEchoNotParkBound(t *testing.T) {
	const (
		total  = 2000
		maxP75 = 500 * time.Microsecond
	)
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) {
			server, client := startEchoPair(t, engine, erpc.Opts{})
			rtts, st := echoRTTs(t, server, client, 1, 1, total)
			p50, p75 := rtts[total/2], rtts[total*3/4]
			t.Logf("%d serial echoes: rtt p50 %v p75 %v; PktsPaced %d of PktsTx %d, TimelyUpdates %d of PktsRx %d",
				total, p50, p75, st.PktsPaced, st.PktsTx, st.TimelyUpdates, st.PktsRx)
			if p75 >= maxP75 {
				t.Fatalf("rtt p75 %v, want < %v: a paced request waited for a park instead of its slot", p75, maxP75)
			}
		})
	}
}

// TestWindowedEchoNotParkBound is the benchmark's echo_w128 as a test,
// the concurrent twin of TestSerialEchoNotParkBound: 16 sessions × 8
// slots of 32 B echoes outstanding, default Config, UDP loopback, every
// engine. A small request is charged its own 48 wire bytes of rate
// whatever else its session has in flight, so even at the rates Timely
// idles at here its pacing delay is microseconds and the round trip is
// CPU-bound. Charged an MTU each, the requests of a session queue behind
// one another in the wheel, the loop leaves that backlog to a timer
// (≈ 1.1 ms) and p75 is 1.5 ms on any host — the mode this test keeps
// out. 128 outstanding on a CPU-bound loop take 128 / rate to come back,
// which on a slow engine, a busy host or under the race detector is
// itself more than 500 µs; there the bound is three times what the same
// echoes take with congestion control off (held back, they took 11x).
func TestWindowedEchoNotParkBound(t *testing.T) {
	const (
		sessions = 16
		slots    = 8
		total    = 20000
		maxP75   = 500 * time.Microsecond
	)
	for _, engine := range udpEngines() {
		t.Run(engine, func(t *testing.T) {
			run := func(opts erpc.Opts) time.Duration {
				server, client := startEchoPair(t, engine, opts)
				rtts, st := echoRTTs(t, server, client, sessions, slots, total)
				p50, p75 := rtts[total/2], rtts[total*3/4]
				t.Logf("DisableCC %v: %d echoes, %d x %d outstanding: rtt p50 %v p75 %v; PktsPaced %d of PktsTx %d, TimelyUpdates %d of PktsRx %d",
					opts.DisableCC, total, sessions, slots, p50, p75, st.PktsPaced, st.PktsTx, st.TimelyUpdates, st.PktsRx)
				return p75
			}
			limit := max(maxP75, 3*run(erpc.Opts{DisableCC: true}))
			if p75 := run(erpc.Opts{}); p75 >= limit {
				t.Fatalf("rtt p75 %v, want < %v: paced requests queued behind one another and waited for a timer", p75, limit)
			}
		})
	}
}
