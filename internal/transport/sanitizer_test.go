//go:build erpcdebug

package transport

import (
	"strings"
	"testing"
	"time"
)

// These tests prove each erpcdebug assertion actually fires: every one
// commits a lifetime violation on purpose and expects the sanitizer
// panic. They exist only in the erpcdebug build (CI's
// `go test -tags erpcdebug -race` leg).

// expectPanic runs fn and asserts it panics with a message containing
// want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("expected panic containing %q, got %v", want, r)
		}
	}()
	fn()
}

func TestDebugPoolDoublePut(t *testing.T) {
	p := NewPool(128, 8)
	b := p.Get()
	p.Put(b)
	expectPanic(t, "double put", func() { p.Put(b) })
}

func TestDebugPoolDoublePutShared(t *testing.T) {
	p := NewPool(128, 8)
	b := p.Get()
	p.PutShared(b)
	expectPanic(t, "double put", func() { p.PutShared(b) })
}

// TestDebugFrameCopyDoubleRelease is the Frame-level shape of the same
// bug: Release on a copied frame re-puts the same backing buffer, and
// the panic carries the acquisition site.
func TestDebugFrameCopyDoubleRelease(t *testing.T) {
	p := NewPool(128, 8)
	f := PooledFrame(p.Get(), Addr{}, p)
	g := f // the copy still references the same backing array
	f.Release()
	expectPanic(t, "double put", func() { g.Release() })
}

func TestDebugPoolForeignFastPut(t *testing.T) {
	p := NewPool(128, 8)
	b := p.Get() // acquired on the test goroutine
	errc := make(chan any, 1)
	go func() {
		defer func() { errc <- recover() }()
		p.Put(b) // fast path off the owner goroutine
	}()
	r := <-errc
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "off the owner goroutine") {
		t.Fatalf("expected foreign fast-put panic, got %v", r)
	}
}

func TestDebugPoolSharedPutFromForeignGoroutineOK(t *testing.T) {
	p := NewPool(128, 8)
	b := p.Get()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.PutShared(b) // the sanctioned cross-goroutine path
	}()
	<-done
}

// TestDebugRecvOverHeldFrame breaks the RX rule on purpose: the owner
// keeps a frame of one burst and receives on. The receive after next
// fills the held frame's window again, and the sanitizer panics there,
// naming where the frame was handed out.
func TestDebugRecvOverHeldFrame(t *testing.T) {
	a, b := newUDPPair(t)
	var f [1]Frame
	recvOne := func(payload string) {
		t.Helper()
		send1(a, Addr{1, 0}, []byte(payload))
		for deadline := time.Now().Add(2 * time.Second); b.RecvBurst(f[:]) == 0; { // the hand-out site
			if time.Now().After(deadline) {
				t.Fatalf("%q did not arrive", payload)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	recvOne("held") // f[0] stays out: its window may not be received into
	held := f[0]
	recvOne("next") // the other window: allowed
	f[0].Release()
	here := site(0) // this file, where recvOne handed the frame out
	expectPanic(t, "unreleased frame(s), handed out at "+here[:strings.LastIndexByte(here, ':')], func() {
		b.RecvBurst(f[:])
	})
	held.Release()
}
