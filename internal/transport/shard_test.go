package transport

import (
	"testing"
	"time"
)

// newShards binds n shards with cleanup, failing the test on error.
func newShards(t *testing.T, node uint16, n int) []*UDP {
	t.Helper()
	shards, err := ListenUDPShards(node, "127.0.0.1:0", n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range shards {
			s.Close()
		}
	})
	return shards
}

// TestListenUDPShardsLayout checks the shard socket layout on whatever
// this build supports: with SO_REUSEPORT every shard shares one UDP
// address; on the portable fallback every shard has its own port. In
// both modes shard i is endpoint (node, i).
func TestListenUDPShardsLayout(t *testing.T) {
	const n = 4
	shards := newShards(t, 7, n)
	if len(shards) != n {
		t.Fatalf("got %d shards, want %d", len(shards), n)
	}
	ports := map[int]bool{}
	for i, s := range shards {
		if got := s.LocalAddr(); got != (Addr{Node: 7, Port: uint16(i)}) {
			t.Fatalf("shard %d endpoint = %v", i, got)
		}
		ports[s.BoundAddr().Port] = true
	}
	if ReusePortSupported {
		if len(ports) != 1 {
			t.Fatalf("reuseport shards spread over %d ports, want 1 shared port", len(ports))
		}
	} else if len(ports) != n {
		t.Fatalf("fallback shards share ports: %d distinct of %d", len(ports), n)
	}
	if _, err := ListenUDPShards(1, "127.0.0.1:0", 0); err == nil {
		t.Fatal("ListenUDPShards accepted n = 0")
	}
}

// TestShardFlowAffinity sends bursts from several client sockets at a
// sharded listener and checks the sharding contract: every frame
// arrives, and all of one client's frames land on a single shard (the
// kernel 4-tuple hash pins a flow to a shard for the socket set's
// lifetime; the fallback layout routes by explicit port, which is a
// fortiori single-shard). No shard shares any datapath state with its
// siblings, so a migrating flow would be the only way to corrupt
// per-flow ordering.
func TestShardFlowAffinity(t *testing.T) {
	const (
		nShards  = 4
		nClients = 3
		perCli   = 40
	)
	shards := newShards(t, 1, nShards)
	clients := make([]*UDP, nClients)
	for c := range clients {
		cli, err := NewUDP(Addr{Node: uint16(100 + c), Port: 0}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		// Resolve every server endpoint through the shard layout (one
		// shared address under reuseport, per-shard ports on fallback).
		for _, s := range shards {
			if err := cli.AddPeer(s.LocalAddr(), s.BoundAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
		clients[c] = cli
	}

	for c, cli := range clients {
		frames := make([]Frame, perCli)
		for i := range frames {
			frames[i] = Frame{Data: []byte{byte(c), byte(i)}, Addr: Addr{Node: 1, Port: 0}}
		}
		cli.SendBurst(frames)
	}

	// Drain every shard until all frames are accounted for.
	perClientShards := make([]map[int]int, nClients)
	for c := range perClientShards {
		perClientShards[c] = map[int]int{}
	}
	total := 0
	buf := make([]Frame, 64)
	deadline := time.Now().Add(5 * time.Second)
	for total < nClients*perCli && time.Now().Before(deadline) {
		progress := false
		for si, s := range shards {
			k := s.RecvBurst(buf)
			for i := 0; i < k; i++ {
				c := int(buf[i].Addr.Node) - 100
				if c < 0 || c >= nClients {
					t.Fatalf("frame from unexpected node %d", buf[i].Addr.Node)
				}
				perClientShards[c][si]++
				buf[i].Release()
			}
			total += k
			progress = progress || k > 0
		}
		if !progress {
			time.Sleep(500 * time.Microsecond)
		}
	}
	if total != nClients*perCli {
		t.Fatalf("shards delivered %d of %d frames", total, nClients*perCli)
	}
	for c, dist := range perClientShards {
		if len(dist) != 1 {
			t.Fatalf("client %d's flow migrated across shards: %v", c, dist)
		}
		for _, n := range dist {
			if n != perCli {
				t.Fatalf("client %d: shard saw %d of %d frames", c, n, perCli)
			}
		}
	}
}

// TestShardEcho round-trips through a shard: whichever shard the
// kernel picks for a client's flow must be able to answer over its own
// socket, with the client seeing the answering shard's endpoint as the
// source (lazily-created server sessions make any shard a valid
// server; see the core runtime).
func TestShardEcho(t *testing.T) {
	t.Run("platform", func(t *testing.T) { runShardEcho(t, newShards(t, 1, 2)) })
	// The portable layout — one port per shard — is what ListenUDPShards
	// returns where SO_REUSEPORT is missing; called directly so it is
	// exercised on Linux too.
	t.Run("per-port", func(t *testing.T) {
		shards, err := listenShardsFallback(1, "127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range shards {
			t.Cleanup(func() { s.Close() })
		}
		if shards[0].BoundAddr().Port == shards[1].BoundAddr().Port {
			t.Fatalf("fallback shards share port %d", shards[0].BoundAddr().Port)
		}
		runShardEcho(t, shards)
	})
}

func runShardEcho(t *testing.T, shards []*UDP) {
	cli, err := NewUDP(Addr{Node: 9, Port: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, s := range shards {
		if err := cli.AddPeer(s.LocalAddr(), s.BoundAddr().String()); err != nil {
			t.Fatal(err)
		}
		if err := s.AddPeer(cli.LocalAddr(), cli.BoundAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	send1(cli, Addr{Node: 1, Port: 0}, []byte("ping"))

	var served *UDP
	deadline := time.Now().Add(2 * time.Second)
	for served == nil && time.Now().Before(deadline) {
		for _, s := range shards {
			if f, from, ok := recv1(s); ok {
				if string(f) != "ping" || from != cli.LocalAddr() {
					t.Fatalf("shard got %q from %v", f, from)
				}
				served = s
			}
		}
		if served == nil {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if served == nil {
		t.Fatal("no shard received the ping")
	}
	send1(served, cli.LocalAddr(), []byte("pong"))
	f, from := recvWait(t, cli)
	if string(f) != "pong" {
		t.Fatalf("client got %q", f)
	}
	if from != served.LocalAddr() {
		t.Fatalf("pong from %v, want the serving shard %v", from, served.LocalAddr())
	}
}
