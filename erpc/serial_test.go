package erpc_test

import (
	"sort"
	"testing"
	"time"

	"repro/erpc"
)

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
			server := erpc.NewServer(nx, []erpc.Config{{Transport: srvTrs[0], Clock: erpc.NewWallClock()}}, 1)
			client := erpc.NewClient(nx, []erpc.Config{{Transport: cliTrs[0], Clock: erpc.NewWallClock()}})
			sess, err := client.CreateSession(0, server.Addrs())
			if err != nil {
				t.Fatal(err)
			}
			server.Start()
			client.Start()
			defer server.Stop()
			defer client.Stop()

			r := client.Rpc(0)
			rtts := make([]time.Duration, 0, total)
			finished := make(chan struct{})
			r.Post(func() {
				req, resp := r.Alloc(32), r.Alloc(32)
				var issue func()
				issue = func() {
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
			})
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatal("timed out") // rtts belongs to the dispatch goroutine until finished closes
			}
			client.Stop()
			server.Stop()

			sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
			p50, p75 := rtts[total/2], rtts[total*3/4]
			st := client.Stats()
			t.Logf("%d serial echoes: rtt p50 %v p75 %v; PktsPaced %d of PktsTx %d, TimelyUpdates %d of PktsRx %d",
				total, p50, p75, st.PktsPaced, st.PktsTx, st.TimelyUpdates, st.PktsRx)
			if p75 >= maxP75 {
				t.Fatalf("rtt p75 %v, want < %v: a paced request waited for a park instead of its slot", p75, maxP75)
			}
		})
	}
}
