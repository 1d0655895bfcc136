// Command erpc-server runs a real eRPC key-value server over UDP: an
// end-to-end demonstration that the library is usable outside the
// simulator. It is a multi-endpoint process (paper §3.1): N dispatch
// goroutines, each owning one Rpc endpoint on its own UDP socket, all
// sharing one Nexus and one worker pool. Pair it with cmd/erpc-client.
//
// Usage:
//
//	erpc-server -bind 127.0.0.1:31850 -endpoints 4 127.0.0.1:31900/2
//
// binds UDP ports 31850..31853 (one per endpoint) and expects one
// client process with 2 endpoints at 127.0.0.1:31900 and :31901. Each
// positional argument host:port/m registers a client process of m
// endpoints (default 1) at consecutive UDP ports; clients are assigned
// eRPC node ids 100, 101, ...
//
// With -shards N the N endpoints instead share the single -bind
// address via SO_REUSEPORT (the sharded datapath): the kernel's flow
// hash pins each client flow to one shard, and clients point every
// session at the one address (erpc-client -shards N). At exit the
// per-shard counters show how the kernel spread the flows.
//
// Request types: 1 = GET (key → value), 2 = PUT (EncodePut(key,value)
// → 1-byte status), 3 = echo.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/erpc"
	"repro/internal/kv"
	"repro/internal/transport"
)

func main() {
	var (
		bind      = flag.String("bind", "127.0.0.1:31850", "UDP bind address of endpoint 0; endpoint i binds port+i (with -shards: the one shared address)")
		endpoints = flag.Int("endpoints", 1, "dispatch endpoints (one UDP socket + goroutine each)")
		shards    = flag.Int("shards", 0, "serve N endpoints as SO_REUSEPORT shards of the single -bind address (overrides -endpoints; kernel flow hash picks the shard per client flow; falls back to N consecutive ports where SO_REUSEPORT is unavailable)")
		workers   = flag.Int("workers", 0, "shared worker pool size for long-running handlers (0 = GOMAXPROCS)")
		drainTO   = flag.Duration("draintimeout", 5*time.Second, "graceful-drain deadline on SIGTERM: new work is rejected, admitted RPCs run to completion, then the process stops (SIGINT still stops immediately)")
	)
	flag.Parse()
	if *shards < 0 {
		log.Fatalf("-shards must be >= 0 (got %d)", *shards)
	}
	if *shards > 0 {
		*endpoints = *shards
	}
	if *endpoints <= 0 {
		log.Fatalf("-endpoints must be >= 1 (got %d)", *endpoints)
	}

	store := kv.New()
	nx := erpc.NewNexus()
	nx.Register(1, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		v := store.Get(ctx.Req)
		out := ctx.AllocResponse(len(v))
		copy(out, v)
		ctx.EnqueueResponse()
	}})
	nx.Register(2, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		k, v, ok := kv.DecodePut(ctx.Req)
		out := ctx.AllocResponse(1)
		if ok {
			store.Put(k, v)
			out[0] = 0
		} else {
			out[0] = 1
		}
		ctx.EnqueueResponse()
	}})
	nx.Register(3, erpc.Handler{Fn: func(ctx *erpc.ReqContext) {
		out := ctx.AllocResponse(len(ctx.Req))
		copy(out, ctx.Req)
		ctx.EnqueueResponse()
	}})

	var trs []*transport.UDP
	if *shards > 0 {
		var err error
		trs, err = erpc.ListenUDPShards(1, *bind, *shards)
		if err != nil {
			log.Fatal(err)
		}
		mode := "SO_REUSEPORT shards of one address"
		if !erpc.UDPReusePortSupported {
			mode = "per-port shard fallback (no SO_REUSEPORT on this build)"
		}
		fmt.Printf("sharded: %d %s\n", *shards, mode)
	} else {
		host, basePort, err := erpc.SplitHostPort(*bind)
		if err != nil {
			log.Fatal(err)
		}
		trs, err = erpc.ListenUDP(1, host, basePort, *endpoints)
		if err != nil {
			log.Fatal(err)
		}
	}
	for i, tr := range trs {
		defer tr.Close()
		fmt.Printf("endpoint 1:%d listening on %s\n", i, tr.BoundAddr())
	}

	// The UDP transport resolves eRPC addresses through a static peer
	// table (it stands in for eRPC's sockets-based session management
	// plane). Each positional argument host:port/m is one client
	// process of m endpoints at consecutive ports.
	for i, peer := range flag.Args() {
		addr, n, err := splitPeer(peer)
		if err != nil {
			log.Fatal(err)
		}
		phost, pport, err := erpc.SplitHostPort(addr)
		if err != nil {
			log.Fatal(err)
		}
		if err := erpc.AddPeersUDP(trs, uint16(100+i), phost, pport, n); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("peer node %d: %d endpoint(s) at %s\n", 100+i, n, addr)
	}

	server := erpc.NewServer(nx, erpc.UDPConfigs(trs), *workers)
	server.Start()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	// SIGTERM drains gracefully: stop admitting work (arrivals draw
	// PktReject), let every admitted RPC and queued frame finish, then
	// stop. SIGINT stops immediately.
	if sig := <-ch; sig == syscall.SIGTERM {
		fmt.Printf("SIGTERM: draining (deadline %v)\n", *drainTO)
		if server.Drain(*drainTO) {
			fmt.Println("drained: all admitted work completed")
		} else {
			fmt.Println("drain deadline exceeded: stopped with work in flight")
		}
	} else {
		server.Stop()
	}
	st := server.Stats()
	fmt.Printf("served %d handlers across %d endpoints, store holds %d keys\n",
		st.HandlersRun, server.NumEndpoints(), store.Len())
	// Client-mode traffic only (nested RPCs): a pure server paces nothing.
	fmt.Printf("retransmits: %d, paced packets: %d of %d sent, timely updates: %d of %d received\n",
		st.Retransmits, st.PktsPaced, st.PktsTx, st.TimelyUpdates, st.PktsRx)
	for _, tr := range trs {
		tr.Close() // the loops have stopped: the per-shard counters below are final
	}
	for i, line := range erpc.UDPShardStats(trs) {
		fmt.Printf("  %s, handled %d\n", line, server.Rpc(i).Stats.HandlersRun)
	}
	engine, syscalls, batches := erpc.UDPSyscallStats(trs)
	segs, gro, aliased := erpc.UDPGsoStats(trs)
	fmt.Printf("udp engine %s: %d data syscalls, %d mmsg batches, %d gso segments, %d gro batches, %d gro segs aliased\n",
		engine, syscalls, batches, segs, gro, aliased)
}

// splitPeer parses "host:port/m" into the base address and endpoint
// count (default 1).
func splitPeer(s string) (string, int, error) {
	addr, ms, found := strings.Cut(s, "/")
	if !found {
		return addr, 1, nil
	}
	m, err := strconv.Atoi(ms)
	if err != nil || m <= 0 {
		return "", 0, fmt.Errorf("bad endpoint count in peer %q", s)
	}
	return addr, m, nil
}
