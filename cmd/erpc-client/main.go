// Command erpc-client load-tests a real eRPC server over UDP (see
// cmd/erpc-server) and prints latency percentiles and throughput. It
// is the requester-side half of the multi-endpoint runtime: M client
// dispatch goroutines, each owning one Rpc endpoint, with sessions
// striped across the server's N endpoints by flow hash.
//
// Usage:
//
//	erpc-client -bind 127.0.0.1:31900 -endpoints 2 \
//	    -server 127.0.0.1:31850 -server-endpoints 4 -n 100000 -window 16
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"
	"syscall"
	"time"

	"repro/erpc"
	"repro/internal/stats"
)

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		log.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	var (
		bind      = flag.String("bind", "127.0.0.1:31900", "UDP bind address of endpoint 0; endpoint i binds port+i")
		node      = flag.Int("node", 100, "this client's eRPC node id (each client process needs its own; the server assigns 100, 101, ... in peer order)")
		endpoints = flag.Int("endpoints", 1, "client dispatch endpoints")
		server    = flag.String("server", "127.0.0.1:31850", "server UDP address of its endpoint 0 (with -shards: the server's one shared address)")
		srvEps    = flag.Int("server-endpoints", 1, "server endpoint count (consecutive UDP ports)")
		shards    = flag.Int("shards", 0, "the server is SO_REUSEPORT-sharded: treat it as N endpoints all behind the single -server address (overrides -server-endpoints; pair with erpc-server -shards N)")
		sessions  = flag.Int("sessions", 0, "sessions per client endpoint (0 = one per server endpoint)")
		n         = flag.Int("n", 100_000, "total requests to issue")
		window    = flag.Int("window", 16, "requests in flight per client endpoint")
		size      = flag.Int("size", 32, "request payload bytes")
	)
	flag.Parse()
	if *shards < 0 {
		log.Fatalf("-shards must be >= 0 (got %d)", *shards)
	}
	if *shards > 0 {
		*srvEps = *shards
	}
	if *endpoints <= 0 || *srvEps <= 0 {
		log.Fatalf("-endpoints and -server-endpoints must be >= 1 (got %d, %d)", *endpoints, *srvEps)
	}
	if *sessions < 0 {
		log.Fatalf("-sessions must be >= 0 (got %d)", *sessions)
	}
	if *n <= 0 || *window <= 0 {
		log.Fatalf("-n and -window must be >= 1 (got %d, %d)", *n, *window)
	}
	if *node <= 1 || *node > 0xFFFF {
		log.Fatalf("-node must be in [2, 65535] (got %d; node 1 is the server)", *node)
	}
	if *sessions == 0 {
		*sessions = *srvEps
	}

	host, basePort, err := erpc.SplitHostPort(*bind)
	if err != nil {
		log.Fatal(err)
	}
	trs, err := erpc.ListenUDP(uint16(*node), host, basePort, *endpoints)
	if err != nil {
		log.Fatal(err)
	}
	if *shards > 0 {
		// Sharded server: every endpoint sits behind the one address;
		// the kernel, not the port math, routes each flow to a shard.
		// The client cannot see the server's build, so say what the
		// mapping assumes: against a per-port fallback server (no
		// SO_REUSEPORT) this address is only shard 0, every flow lands
		// there, and the remaining shards idle — use -server-endpoints
		// for such a server instead.
		fmt.Printf("sharded server: %d endpoints behind %s (requires erpc-server -shards %d on a SO_REUSEPORT build)\n",
			*srvEps, *server, *srvEps)
		if err := erpc.AddPeersShared(trs, 1, *server, *srvEps); err != nil {
			log.Fatal(err)
		}
	} else {
		shost, sport, err := erpc.SplitHostPort(*server)
		if err != nil {
			log.Fatal(err)
		}
		if err := erpc.AddPeersUDP(trs, 1, shost, sport, *srvEps); err != nil {
			log.Fatal(err)
		}
	}
	serverAddrs := make([]erpc.Addr, *srvEps)
	for i := range serverAddrs {
		serverAddrs[i] = erpc.Addr{Node: 1, Port: uint16(i)}
	}

	client := erpc.NewClient(erpc.NewNexus(), erpc.UDPConfigs(trs))
	sess := make([][]*erpc.Session, *endpoints)
	for i := 0; i < *endpoints; i++ {
		for k := 0; k < *sessions; k++ {
			s, err := client.CreateSession(i, serverAddrs)
			if err != nil {
				log.Fatal(err)
			}
			sess[i] = append(sess[i], s)
		}
	}
	client.Start()

	recs := make([]*stats.Recorder, *endpoints)
	var done, failed atomic.Int64
	finished := make(chan struct{})
	start, cpuStart := time.Now(), cpuTime()
	for i := 0; i < *endpoints; i++ {
		r := client.Rpc(i)
		// Split -n exactly: the first n%endpoints endpoints issue one
		// extra request.
		quota := *n / *endpoints
		if i < *n%*endpoints {
			quota++
		}
		if quota == 0 {
			continue
		}
		recs[i] = stats.NewRecorder(quota)
		rec := recs[i]
		mySess := sess[i]
		r.Post(func() {
			issued, completed := 0, 0
			payload := make([]byte, *size)
			var issue func()
			issue = func() {
				if issued >= quota {
					return
				}
				issued++
				k := issued % len(mySess)
				req := r.Alloc(*size)
				copy(req.Data(), payload)
				resp := r.Alloc(*size + 64)
				t0 := time.Now()
				r.EnqueueRequest(mySess[k], 3, req, resp, func(err error) {
					if err != nil {
						failed.Add(1)
						log.Printf("rpc error: %v", err)
					} else {
						rec.Add(float64(time.Since(t0).Microseconds()))
					}
					r.Free(req)
					r.Free(resp)
					completed++
					if completed == quota {
						if done.Add(int64(quota)) >= int64(*n) {
							close(finished)
						}
						return
					}
					issue()
				})
			}
			for w := 0; w < *window && w < quota; w++ {
				issue()
			}
		})
	}
	<-finished
	elapsed, cpu := time.Since(start), cpuTime()-cpuStart
	client.Stop()

	total := int(done.Load())
	nfail := int(failed.Load())
	st := client.Stats()
	fmt.Printf("completed %d RPCs (%d failed) over %d endpoint(s) in %v: %.0f req/s\n",
		total-nfail, nfail, *endpoints, elapsed, float64(total-nfail)/elapsed.Seconds())
	all := stats.NewRecorder(total)
	for i, rec := range recs {
		if rec == nil {
			continue // more endpoints than requests: this one sat idle
		}
		fmt.Printf("  endpoint %d:%d latency µs: %s\n", *node, i, rec.Summary())
		all.Merge(rec)
	}
	if *endpoints > 1 {
		fmt.Printf("overall latency µs: %s\n", all.Summary())
	}
	// Packets that left the common-case fast path of congestion control
	// (§5.2.2): on an uncongested network both shares should be small.
	fmt.Printf("retransmits: %d, paced packets: %d of %d sent, timely updates: %d of %d received\n",
		st.Retransmits, st.PktsPaced, st.PktsTx, st.TimelyUpdates, st.PktsRx)
	// Whether the loops were CPU-bound or waiting (for a timer, for the
	// server): a client that occupies a fraction of a core at a low rate
	// spent the run parked.
	fmt.Printf("process cpu: %.2f µs/rpc, %.2f cores occupied (user+sys over wall)\n",
		float64(cpu.Microseconds())/float64(max(total, 1)), cpu.Seconds()/elapsed.Seconds())
	for _, tr := range trs {
		tr.Close() // the loops have stopped: the per-endpoint counters below are final
	}
	for _, line := range erpc.UDPShardStats(trs) {
		fmt.Printf("  %s\n", line)
	}
	engine, syscalls, batches := erpc.UDPSyscallStats(trs)
	segs, gro, aliased := erpc.UDPGsoStats(trs)
	fmt.Printf("udp engine %s: %d data syscalls (%.2f/rpc), %d mmsg batches, %d gso segments, %d gro batches, %d gro segs aliased\n",
		engine, syscalls, float64(syscalls)/float64(max(total, 1)), batches, segs, gro, aliased)
}
