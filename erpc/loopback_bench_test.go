package erpc_test

import "testing"

// BenchmarkLoopbackRPC measures the full small-RPC round trip over UDP
// loopback with manually driven event loops — the real-transport hot
// path the burst datapath optimizes. One sub-benchmark per UDP syscall
// engine. Run with -benchmem to see the zero-alloc property.
func BenchmarkLoopbackRPC(b *testing.B) {
	for _, engine := range udpEngines() {
		b.Run(engine, func(b *testing.B) { runLoopbackRPC(b, engine) })
	}
}

func runLoopbackRPC(b *testing.B, engine string) {
	p := newEchoPair(b, engine)
	req, resp := p.cli.Alloc(32), p.cli.Alloc(32)
	var done bool
	cont := func(error) { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		p.cli.EnqueueRequest(p.sess, 1, req, resp, cont)
		for !done {
			p.poll()
		}
	}
}
