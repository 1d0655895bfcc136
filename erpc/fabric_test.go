package erpc_test

import (
	"math"
	"testing"
	"time"

	"repro/erpc"
	"repro/internal/transport"
)

const (
	bulkPut  = 2 // 64 KiB request, 8 B response
	bulkGet  = 3 // 8 B request, 64 KiB response
	bulkSize = 64 << 10
	linkGbps = 25
)

// startBulkPair starts a one-endpoint bulk Server and Client over UDP
// loopback on the default engine, each on its own RunEventLoop
// goroutine, default Config but for a link rate of linkGbps. A nonzero
// delay wraps the server's transport in a Chaos phase that holds every
// data packet it sends for that long: a straggling fabric, since the
// packets wait before the client's kernel stamps them. It skips the
// test when the engine does not stamp received packets.
func startBulkPair(t *testing.T, delay time.Duration) (*erpc.Server, *erpc.Client) {
	nx := erpc.NewNexus()
	nx.Register(bulkPut, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		ctx.AllocResponse(8)
		ctx.EnqueueResponse()
	}})
	nx.Register(bulkGet, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		ctx.AllocResponse(bulkSize)
		ctx.EnqueueResponse()
	}})
	engine := udpEngines()[0]
	srvTrs := listenUDPEngine(t, engine, 1, 1)
	cliTrs := listenUDPEngine(t, engine, 2, 1)
	if !srvTrs[0].RxStamps() || !cliTrs[0].RxStamps() {
		t.Skipf("engine %s delivers no kernel receive stamps", engine)
	}
	if err := erpc.AddPeersFrom(srvTrs, cliTrs); err != nil {
		t.Fatal(err)
	}
	if err := erpc.AddPeersFrom(cliTrs, srvTrs); err != nil {
		t.Fatal(err)
	}
	var srvTr erpc.Transport = srvTrs[0]
	if delay > 0 {
		start := time.Now()
		srvTr = erpc.NewChaosTransport(srvTr, 1, func() int64 { return int64(time.Since(start)) },
			[]erpc.ChaosPhase{{Dur: math.MaxInt64, Delay: int64(delay), DataOnly: true}})
	}
	server := erpc.NewServer(nx, []erpc.Config{{Transport: srvTr, Clock: erpc.NewWallClock(), LinkRateGbps: linkGbps}}, 1)
	client := erpc.NewClient(nx, []erpc.Config{{Transport: cliTrs[0], Clock: erpc.NewWallClock(), LinkRateGbps: linkGbps}})
	server.Start()
	client.Start()
	t.Cleanup(server.Stop)
	t.Cleanup(client.Stop)
	return server, client
}

// bulkLoop is the benchmark's bulk_64k for d: on one session, slot 0
// loops a 64 KiB put and slot 1 a 64 KiB get. It returns the RPCs
// completed, the client's counters and the session's Timely rate at
// the end, in bytes/s.
func bulkLoop(t *testing.T, server *erpc.Server, client *erpc.Client, d time.Duration) (int, erpc.Stats, float64) {
	r := client.Rpc(0)
	done, running := 0, 2
	var rate float64
	finished := make(chan struct{})
	r.Post(func() {
		sess, err := client.CreateSession(0, server.Addrs())
		if err != nil {
			t.Error(err)
			close(finished)
			return
		}
		deadline := time.Now().Add(d)
		for _, c := range []struct {
			typ         uint8
			reqN, respN int
		}{{bulkPut, bulkSize, 8}, {bulkGet, 8, bulkSize}} {
			req, resp := r.Alloc(c.reqN), r.Alloc(c.respN)
			var issue func()
			issue = func() {
				r.EnqueueRequest(sess, c.typ, req, resp, func(err error) {
					if err != nil {
						t.Errorf("bulk rpc type %d: %v", c.typ, err)
					}
					done++
					if err == nil && time.Now().Before(deadline) {
						issue()
						return
					}
					if running--; running == 0 {
						rate = sess.CCRate()
						close(finished)
					}
				})
			}
			issue()
		}
	})
	select {
	case <-finished:
	case <-time.After(d + 30*time.Second):
		t.Fatal("timed out") // done and rate belong to the dispatch goroutine until finished closes
	}
	client.Stop()
	server.Stop()
	return done, client.Stats(), rate
}

// TestBulkCCSeesFabric: Timely's sample is the fabric's share of the
// round trip, the RTT less the time the packets spent inside either
// host. On idle loopback that is nearly nothing, so 64 KiB puts and
// gets with congestion control on stay close to the paper's common case
// (§5.2.2): Timely is bypassed and the rate limiter unused on most
// packets. Fed the whole RTT, both ran on 98-99.9 % of packets. The
// server reports its hold up to the clock read of the flush that
// carries its reply. What the split cannot see is the send syscall
// after that read, up to the client's kernel stamp. On two vCPUs that
// syscall is now and then preempted, for tens to hundreds of µs. Each
// such sample halves the rate, and a few hundred bypass-free samples
// climb it back. Over fifteen runs inside the whole suite, whose
// packages run in parallel, both shares read 0.002-0.014, hence the
// bound of 0.05.
// The race detector slows every pass tenfold and the shares return to
// ~1, so there only the second half runs. In that half, a 300 µs
// straggler on the server's sends sits before the client's kernel
// stamp, so it is fabric: Timely engages and leaves line rate.
func TestBulkCCSeesFabric(t *testing.T) {
	const (
		d        = time.Second
		maxShare = 0.05
	)
	server, client := startBulkPair(t, 0)
	n, st, _ := bulkLoop(t, server, client, d)
	paced := float64(st.PktsPaced) / float64(st.PktsTx)
	updates := float64(st.TimelyUpdates) / float64(st.PktsRx)
	t.Logf("idle loopback: %d RPCs; PktsPaced %d of PktsTx %d (%.4f), TimelyUpdates %d of PktsRx %d (%.4f)",
		n, st.PktsPaced, st.PktsTx, paced, st.TimelyUpdates, st.PktsRx, updates)
	if !transport.RaceEnabled && (paced >= maxShare || updates >= maxShare) {
		t.Fatalf("paced share %.4f, Timely update share %.4f; want both < %v: host delay reached Timely as congestion", paced, updates, maxShare)
	}

	server, client = startBulkPair(t, 300*time.Microsecond)
	n, st, rate := bulkLoop(t, server, client, d)
	t.Logf("300 µs straggler: %d RPCs; TimelyUpdates %d of PktsRx %d, rate %.3g B/s of link %.3g",
		n, st.TimelyUpdates, st.PktsRx, rate, linkGbps*1e9/8)
	if st.TimelyUpdates == 0 || rate >= linkGbps*1e9/8 {
		t.Fatalf("TimelyUpdates %d, rate %.3g B/s: a fabric delay of 300 µs must engage Timely below line rate", st.TimelyUpdates, rate)
	}
}
