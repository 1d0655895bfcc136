package erpc_test

import (
	"bytes"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/erpc"
)

// loopKinds is udpEngines plus "sharded-2": a server on two
// SO_REUSEPORT shards of one address (or two ports where the platform
// has no SO_REUSEPORT) on the default engine.
func loopKinds() []string { return append(udpEngines(), "sharded-2") }

// startLoopPair starts an echo Server (one worker) and a one-endpoint
// Client over UDP loopback of the named kind, each endpoint on its own
// RunEventLoop goroutine; both are stopped with the test.
func startLoopPair(t *testing.T, kind string) (*erpc.Server, *erpc.Client) {
	t.Helper()
	if kind != "sharded-2" {
		return startEchoPair(t, kind, erpc.Opts{})
	}
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})
	srvTrs, err := erpc.ListenUDPShards(1, "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	cliTrs := listenUDPEngine(t, udpEngines()[0], 2, 1)
	for _, tr := range srvTrs {
		t.Cleanup(func() { tr.Close() })
	}
	if err := erpc.AddPeersFrom(srvTrs, cliTrs); err != nil {
		t.Fatal(err)
	}
	if err := erpc.AddPeersFrom(cliTrs, srvTrs); err != nil {
		t.Fatal(err)
	}
	server := erpc.NewServer(nx, erpc.UDPConfigs(srvTrs), 1)
	client := erpc.NewClient(nx, erpc.UDPConfigs(cliTrs))
	server.Start()
	client.Start()
	t.Cleanup(server.Stop)
	t.Cleanup(client.Stop)
	return server, client
}

// TestPostRacesParks posts 100 000 closures, one at a time, from a
// goroutine other than the loops' to every server endpoint in turn:
// each arrives while its loop is entering, in or leaving the park it
// falls into once the previous one has run. All must run, and none may
// wait for the park's deadline (a timer's length, about a millisecond):
// a lost wake-up between Post's Interrupt and the loop's Wait would.
func TestPostRacesParks(t *testing.T) {
	const (
		posts  = 100_000
		maxP99 = time.Millisecond
	)
	for _, kind := range loopKinds() {
		t.Run(kind, func(t *testing.T) {
			server, _ := startLoopPair(t, kind)
			lat := make([]time.Duration, posts)
			ran := make(chan struct{}, 1)
			for i := 0; i < posts; i++ {
				r := server.Rpc(i % server.NumEndpoints())
				start := time.Now()
				r.Post(func() {
					lat[i] = time.Since(start)
					ran <- struct{}{}
				})
				select {
				case <-ran:
				case <-time.After(10 * time.Second):
					t.Fatalf("post %d did not run within 10 s", i)
				}
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			p50, p99, worst := lat[posts/2], lat[posts*99/100], lat[posts-1]
			t.Logf("%d posts: post-to-run p50 %v p99 %v max %v", posts, p50, p99, worst)
			if p99 >= maxP99 {
				t.Fatalf("post-to-run p99 %v, want < %v: posts waited for the park's deadline", p99, maxP99)
			}
		})
	}
}

// TestUDPRpcRunsNoReader counts the goroutines of an echo Server and
// Client over UDP: one per endpoint loop and the server's one worker,
// none started by the transport (no reader goroutine, and no SetWake
// goroutine: an Rpc sleeps in the transport's wait).
func TestUDPRpcRunsNoReader(t *testing.T) {
	for _, kind := range loopKinds() {
		t.Run(kind, func(t *testing.T) {
			server, client := startLoopPair(t, kind)
			rtts := echoRTTsKeepRunning(t, server, client, 200)
			if len(rtts) != 200 {
				t.Fatalf("%d of 200 echoes completed", len(rtts))
			}
			byCore, byTransport := goroutinesCreatedBy("repro/internal/core."), goroutinesCreatedBy("repro/internal/transport.")
			loops := server.NumEndpoints() + client.NumEndpoints()
			if byTransport != 0 || byCore != loops+1 {
				t.Fatalf("%d goroutines started by the transport (want 0), %d by the core (want %d loops + 1 worker)",
					byTransport, byCore, loops)
			}
		})
	}
}

// echoRTTsKeepRunning is echoRTTs without the stops: total serial
// 32 B echoes from the client's endpoint 0, round trips unsorted.
func echoRTTsKeepRunning(t *testing.T, server *erpc.Server, client *erpc.Client, total int) []time.Duration {
	r := client.Rpc(0)
	done := make(chan []time.Duration, 1)
	r.Post(func() {
		sess, err := client.CreateSession(0, server.Addrs())
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		req, resp := r.Alloc(32), r.Alloc(32)
		var rtts []time.Duration
		var issue func()
		issue = func() {
			start := time.Now()
			r.EnqueueRequest(sess, 1, req, resp, func(err error) {
				if err != nil {
					t.Errorf("rpc %d: %v", len(rtts), err)
				}
				rtts = append(rtts, time.Since(start))
				if len(rtts) == total {
					done <- rtts
					return
				}
				issue()
			})
		}
		issue()
	})
	select {
	case rtts := <-done:
		return rtts
	case <-time.After(30 * time.Second):
		t.Fatal("timed out")
		return nil
	}
}

// goroutinesCreatedBy counts the live goroutines whose creator is a
// function of the package with the given qualified-name prefix.
func goroutinesCreatedBy(prefix string) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return bytes.Count(buf, []byte("\ncreated by "+prefix))
}
