package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/erpc"
	"repro/internal/carousel"
	"repro/internal/core"
	"repro/internal/msgbuf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timely"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The host-wide layer numbers: timing loops around public functions of
// each module, short runs of bulk_64k, echo_w32 and proto_inmem,
// echo_w128 on each syscall engine, the Table 3 factor analysis on
// proto_inmem, and the kernel/runtime floors of this host.
// None depends on the workload being run. Durations are stated for
// -seconds 35 (BENCHMARK.json's run_seconds) and scale with it.

// engines are the UDP syscall engines by the name UDP.Engine reports,
// uring last: its SQPOLL kernel thread takes a CPU while it lives.
var engines = []struct {
	name   string
	newUDP func(erpc.Addr, string) (*transport.UDP, error)
}{
	{"gso", erpc.NewUDPTransport},
	{"mmsg", erpc.NewUDPTransportMmsg},
	{"per-packet", erpc.NewUDPTransportPerPacket},
	{"uring", erpc.NewUDPTransportUring},
}

// factors are the Table 3 rows: one optimisation off each.
var factors = []struct {
	name string
	opts core.Opts
}{
	{"no_cc", core.Opts{DisableCC: true}},
	{"no_batched_ts", core.Opts{DisableBatchedTimestamps: true}},
	{"no_timely_bypass", core.Opts{DisableTimelyBypass: true}},
	{"no_ratelimiter_bypass", core.Opts{DisableRateLimiterBypass: true}},
	{"no_multipkt_rq", core.Opts{DisableMultiPacketRQ: true}},
	{"no_prealloc_resp", core.Opts{DisablePreallocResponses: true}},
	{"no_zerocopy_rx", core.Opts{DisableZeroCopyRX: true}},
}

// sink keeps the timing loops' results alive.
var sink uint64

// microNs times fn(n) — n back-to-back calls of the thing measured —
// sizing n so one repetition lasts about rep, and returns the median
// over 5 repetitions of ns per call.
func microNs(rep time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		el := time.Since(t0)
		if el >= rep/2 || n >= 1<<28 {
			if el > 0 {
				n = int(float64(n)*float64(rep)/float64(el)) + 1
			}
			break
		}
		n *= 4
	}
	var per [5]float64
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(per[:])
}

// hostLayers measures every workload-independent per-layer metric.
func hostLayers(o options) (*layerResult, error) {
	unit := o.seconds / runSeconds
	rep := secs(0.04 * unit)
	res := &layerResult{m: map[string]float64{}}
	m := res.m

	// wire
	h := wire.Header{PktType: wire.PktReq, ReqType: 1, MsgSize: smallSize, DstSession: 3, ReqNum: 8}
	var hb [wire.HeaderSize]byte
	m["wire.encode_ns"] = microNs(rep, func(n int) {
		for i := 0; i < n; i++ {
			h.PktNum = uint16(i)
			if h.Encode(hb[:]) != nil {
				panic("wire: encode failed")
			}
		}
		sink += uint64(hb[8])
	})
	m["wire.decode_ns"] = microNs(rep, func(n int) {
		var d wire.Header
		for i := 0; i < n; i++ {
			hb[8] = byte(i)
			if d.Decode(hb[:]) != nil {
				panic("wire: decode failed")
			}
			sink += uint64(d.PktNum)
		}
	})

	// msgbuf
	dataPerPkt := transport.DefaultUDPMTU - wire.HeaderSize
	alloc := msgbuf.NewAllocator(dataPerPkt)
	for _, c := range []struct {
		name string
		size int
	}{{"msgbuf.alloc_free_ns", smallSize}, {"msgbuf.alloc_free_64k_ns", bulkSize}} {
		m[c.name] = microNs(rep, func(n int) {
			for i := 0; i < n; i++ {
				alloc.Free(alloc.Alloc(c.size))
			}
		})
	}
	big := alloc.Alloc(bulkSize)
	scratch := make([]byte, transport.DefaultUDPMTU)
	m["msgbuf.frame_ns"] = microNs(rep, func(n int) {
		last := big.NumPkts() - 1
		for i := 0; i < n; i++ {
			sink += uint64(len(big.Frame(1+i%last, scratch)))
		}
	})

	// transport: pools
	pool := transport.NewPool(transport.DefaultUDPMTU, 0)
	//erpc:owner — this goroutine is the pool's only user
	m["transport.pool_get_put_ns"] = microNs(rep, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	})
	//erpc:owner — as above
	m["transport.pool_shared_ns"] = microNs(rep, func(n int) {
		// Every Get finds the owner list dry and swaps the shared list
		// in under the mutex: the cross-goroutine return path, uncontended.
		for i := 0; i < n; i++ {
			pool.PutShared(pool.Get())
		}
	})

	// carousel, timely
	wheel := carousel.New[int](4096, 200*sim.Nanosecond)
	var now sim.Time
	m["carousel.insert_poll_ns"] = microNs(rep, func(n int) {
		for i := 0; i < n; i++ {
			wheel.Insert(now+300, i)
			now += 400
			wheel.PollUntil(now, func(_ sim.Time, v int) { sink += uint64(v) })
		}
	})
	tl := timely.New(timely.Params{LinkRate: 25e9 / 8})
	m["timely.update_ns"] = microNs(rep, func(n int) {
		for i := 0; i < n; i++ {
			tl.Update(sim.Time(40+i%40) * sim.Microsecond)
		}
		sink += uint64(tl.Rate())
	})

	// core: an empty poll, and Post to a parked loop
	idleTr, _ := newMemPair(erpc.Addr{Node: 2}, erpc.Addr{Node: 1})
	idle := erpc.NewRpc(erpc.NewNexus(), erpc.Config{Transport: idleTr, Clock: erpc.NewWallClock()})
	if _, err := idle.CreateSession(erpc.Addr{Node: 1}); err != nil {
		return nil, err
	}
	m["core.runonce_idle_ns"] = microNs(rep, func(n int) {
		for i := 0; i < n; i++ {
			idle.RunEventLoopOnce()
		}
	})
	m["core.post_wake_p50_us"] = postWake(scaled(300, unit))

	// transport on the default engine, and the kernel floors
	if err := txBurst(rep, m); err != nil {
		return nil, fmt.Errorf("tx burst: %w", err)
	}
	if err := rxBlast(secs(1.0*unit), m); err != nil {
		return nil, fmt.Errorf("rx blast: %w", err)
	}
	if err := transportWake(scaled(300, unit), m); err != nil {
		return nil, fmt.Errorf("transport wake: %w", err)
	}
	var err error
	if m["kernel.udp_rtt_p50_us"], err = kernelUDPRTT(scaled(20000, unit)); err != nil {
		return nil, fmt.Errorf("kernel udp rtt: %w", err)
	}
	m["kernel.timer_200us_p50_us"] = timer200us(scaled(150, unit))
	m["kernel.chan_wake_p50_ns"] = chanWake(scaled(20000, unit))

	batch, bulk, inmem := findWorkload("echo_w128"), findWorkload("bulk_64k"), findWorkload("proto_inmem")
	warm := o.warm * 2 / 5

	// core: the two directions of bulk_64k apart
	tr, err := runTrial(trialCfg{w: bulk, seed: o.seed, warm: warm, measure: secs(1.5 * unit)})
	if err != nil {
		return nil, fmt.Errorf("bulk_64k: %w", err)
	}
	res.count(tr)
	m["core.put_rtt_p50_us"], m["core.get_rtt_p50_us"] = tr.rttPut.Median(), tr.rttGet.Median()

	// echo_w32, the demoted workload
	tr, err = runTrial(trialCfg{w: &echoW32, seed: o.seed, warm: warm, measure: secs(1.5 * unit)})
	if err != nil {
		return nil, fmt.Errorf("echo_w32: %w", err)
	}
	res.count(tr)
	m["harness.echo_w32.rate_krps"] = tr.rateKrps()
	m["harness.echo_w32.rtt_p50_us"] = tr.rtt.Median()
	m["harness.echo_w32.slow_share"] = ratio(tr.slow, uint64(tr.rtt.Count()))

	// core factor analysis: proto_inmem with one Table 3 flag set
	for _, f := range factors {
		tr, err := runTrial(trialCfg{w: inmem, seed: o.seed, warm: warm, measure: secs(0.5 * unit), opts: f.opts})
		if err != nil {
			return nil, fmt.Errorf("factor %s: %w", f.name, err)
		}
		res.count(tr)
		m["core.factor."+f.name+".ns_per_op"] = float64(tr.windowNs) / float64(tr.completed)
	}

	// proto_inmem untraced (the factor analysis's baseline and the
	// demoted workload's cells), then traced: the rate lost is the
	// tracing overhead
	var rates [2]float64
	for i, traced := range []bool{false, true} {
		tr, err := runTrial(trialCfg{w: inmem, seed: o.seed, warm: warm, measure: secs(1.5 * unit), traced: traced})
		if err != nil {
			return nil, fmt.Errorf("proto_inmem: %w", err)
		}
		res.count(tr)
		rates[i] = tr.rateKrps()
		if !traced {
			m["core.factor.none.ns_per_op"] = float64(tr.windowNs) / float64(tr.completed)
			m["harness.proto_inmem.rate_krps"] = rates[i]
			m["harness.proto_inmem.rtt_p99_us"] = tr.rtt.Percentile(99)
		}
	}
	m["trace.overhead_pct"] = 100 * (1 - rates[1]/rates[0])

	// transport engines: echo_w128 on what each engine's constructor
	// gives on this host
	for _, e := range engines {
		tr, err := runTrial(trialCfg{w: batch, seed: o.seed, warm: warm, measure: secs(1.0 * unit), newUDP: e.newUDP})
		if err != nil {
			return nil, fmt.Errorf("engine %s: %w", e.name, err)
		}
		if tr.engine != e.name {
			// Not compiled in, or the kernel refuses it: the numbers are
			// those of the engine the constructor fell back to.
			res.notes = append(res.notes, fmt.Sprintf("transport.engine.%s.* ran on engine %s: the constructor fell back", e.name, tr.engine))
		}
		res.count(tr)
		m["transport.engine."+e.name+".rate_krps"] = tr.rateKrps()
		m["transport.engine."+e.name+".syscalls_per_op"] = float64(tr.udp.syscalls) / float64(tr.completed)
	}

	return res, nil
}

// us converts a duration to the recorders' unit.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// scaled is n sample-count scaled by unit, at least 20.
func scaled(n int, unit float64) int {
	return max(int(float64(n)*unit), 20)
}

// layerResult is hostLayers' output: the metrics, what a reader must
// know about them, and the RPCs its embedded workload runs attempted.
type layerResult struct {
	m                 map[string]float64
	notes             []string
	attempted, failed uint64
}

func (l *layerResult) count(tr *trialResult) {
	l.attempted += tr.attempted()
	l.failed += tr.failed + tr.unresolved
}

// postWake: core.post_wake_p50_us — Rpc.Post from another goroutine to
// a closure running on a loop parked in WaitForWork.
func postWake(n int) float64 {
	tr, _ := newMemPair(erpc.Addr{Node: 2}, erpc.Addr{Node: 1})
	r := erpc.NewRpc(erpc.NewNexus(), erpc.Config{Transport: tr, Clock: erpc.NewWallClock()})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		r.RunEventLoop(stop)
	}()
	ran := make(chan time.Time)
	s := stats.NewRecorder(n)
	for i := 0; i < n; i++ {
		time.Sleep(parkDur + 100*time.Microsecond) // the loop is parked again
		t0 := time.Now()
		r.Post(func() { ran <- time.Now() })
		s.Add(us((<-ran).Sub(t0)))
	}
	close(stop)
	<-done
	return s.Median()
}

// udpSink is a raw socket with a goroutine reading and discarding.
type udpSink struct {
	conn *net.UDPConn
	done chan struct{}
}

func newUDPSink() (*udpSink, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	s := &udpSink{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		buf := make([]byte, 2048)
		for {
			if _, _, err := conn.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	return s, nil
}

func (s *udpSink) close() {
	s.conn.Close()
	<-s.done
}

// txBurst: transport.tx_burst{1,16}_ns_per_pkt — SendBurst of 48-byte
// frames on the default engine to a draining raw socket.
func txBurst(rep time.Duration, m map[string]float64) error {
	snk, err := newUDPSink()
	if err != nil {
		return err
	}
	defer snk.close()
	u, err := erpc.NewUDPTransport(erpc.Addr{Node: 2}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer u.Close()
	peer := erpc.Addr{Node: 1}
	if err := u.AddPeer(peer, snk.conn.LocalAddr().String()); err != nil {
		return err
	}
	frames := make([]transport.Frame, 16)
	for i := range frames {
		frames[i] = transport.Frame{Data: make([]byte, wire.HeaderSize+smallSize), Addr: peer}
	}
	for _, c := range []struct {
		name string
		k    int
	}{{"transport.tx_burst1_ns_per_pkt", 1}, {"transport.tx_burst16_ns_per_pkt", 16}} {
		m[c.name] = microNs(rep, func(n int) {
			for i := 0; i < n; i++ {
				u.SendBurst(frames[:c.k])
			}
		}) / float64(c.k)
	}
	return nil
}

// rxBlast: transport.rx_pps and rx_drop_share — a raw sender blasting
// 48-byte frames at a UDP transport whose owner loops RecvBurst +
// ReleaseBurst.
func rxBlast(d time.Duration, m map[string]float64) error {
	u, err := erpc.NewUDPTransport(erpc.Addr{Node: 1}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer u.Close()
	conn, err := net.DialUDP("udp", nil, u.BoundAddr())
	if err != nil {
		return err
	}
	defer conn.Close()
	wake := make(chan struct{}, 1)
	u.SetWake(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	var stopRx atomic.Bool
	var received uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frames := make([]transport.Frame, transport.DefaultBurst)
		for !stopRx.Load() {
			n := u.RecvBurst(frames)
			if n == 0 {
				// Park like an idle dispatch loop, so the reader
				// goroutine gets the processor.
				select {
				case <-wake:
				case <-time.After(parkDur):
				}
				continue
			}
			received += uint64(n)
			transport.ReleaseBurst(frames[:n])
		}
	}()
	pkt := make([]byte, 4+wire.HeaderSize+smallSize)
	pkt[1] = 2 // source eRPC address 2:0
	var sent uint64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 32; i++ {
			if _, err := conn.Write(pkt); err == nil {
				sent++
			}
		}
	}
	time.Sleep(20 * time.Millisecond) // let the ring drain
	stopRx.Store(true)
	wg.Wait()
	if sent == 0 {
		return errors.New("nothing sent")
	}
	m["transport.rx_pps"] = float64(received) / d.Seconds()
	m["transport.rx_drop_share"] = 1 - float64(received)/float64(sent)
	return nil
}

// transportWake: transport.wake_p50_us / wake_p99_us — raw socket
// write → RecvBurst returns the frame on a goroutine parked on the
// transport's SetWake callback.
func transportWake(n int, m map[string]float64) error {
	u, err := erpc.NewUDPTransport(erpc.Addr{Node: 1}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer u.Close()
	conn, err := net.DialUDP("udp", nil, u.BoundAddr())
	if err != nil {
		return err
	}
	defer conn.Close()
	wake := make(chan struct{}, 1)
	u.SetWake(func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	got := make(chan time.Time)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var f [1]transport.Frame
		for {
			select {
			case <-wake:
			case <-quit:
				return
			}
			if u.RecvBurst(f[:]) == 1 {
				t := time.Now()
				f[0].Release()
				select {
				case got <- t:
				case <-quit:
					return
				}
			}
		}
	}()
	defer func() {
		close(quit)
		wg.Wait()
	}()
	pkt := make([]byte, 4+wire.HeaderSize+smallSize)
	s := stats.NewRecorder(n)
	for i := 0; i < n; i++ {
		time.Sleep(100 * time.Microsecond) // the receiver is parked again
		t0 := time.Now()
		if _, err := conn.Write(pkt); err != nil {
			return err
		}
		select {
		case t := <-got:
			s.Add(us(t.Sub(t0)))
		case <-time.After(time.Second):
			return errors.New("frame not delivered within 1 s")
		}
	}
	m["transport.wake_p50_us"], m["transport.wake_p99_us"] = s.Median(), s.Percentile(99)
	return nil
}

// kernelUDPRTT: kernel.udp_rtt_p50_us — a standard-library UDP
// ping-pong between two goroutines, 48-byte datagrams.
func kernelUDPRTT(n int) (float64, error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	srv, err := net.ListenUDP("udp", lo)
	if err != nil {
		return 0, err
	}
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srv.Close()
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, from, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := srv.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		cli.Close()
		srv.Close()
		<-done
	}()
	pkt := make([]byte, wire.HeaderSize+smallSize)
	s := stats.NewRecorder(n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := cli.Write(pkt); err != nil {
			return 0, err
		}
		cli.SetReadDeadline(t0.Add(time.Second))
		if _, err := cli.Read(pkt); err != nil {
			return 0, err
		}
		s.Add(us(time.Since(t0)))
	}
	return s.Median(), nil
}

// timer200us: kernel.timer_200us_p50_us — how long time.Sleep(200 µs),
// the length of RunEventLoop's idle park, really lasts here.
func timer200us(n int) float64 {
	s := stats.NewRecorder(n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		time.Sleep(parkDur)
		s.Add(us(time.Since(t0)))
	}
	return s.Median()
}

// chanWake: kernel.chan_wake_p50_ns — one goroutine waking another
// through an unbuffered channel.
func chanWake(n int) float64 {
	ping, pong := make(chan struct{}), make(chan time.Time)
	go func() {
		for range ping {
			pong <- time.Now()
		}
	}()
	s := stats.NewRecorder(n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		ping <- struct{}{}
		s.Add(us((<-pong).Sub(t0)))
	}
	close(ping)
	return s.Median() * 1e3
}
