//go:build erpcdebug

package transport

import (
	"strings"
	"testing"
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

func TestDebugSegBufUnderflow(t *testing.T) {
	sp := newSegPool(2048, 4)
	sb := sp.get()
	sb.recharge(1)
	sp.outstanding.Add(1)
	sb.release() // refs 1 -> 0: recycles
	expectPanic(t, "refcount underflow", func() { sb.release() })
}

func TestDebugSegBufRechargeInFlight(t *testing.T) {
	sp := newSegPool(2048, 4)
	sb := sp.get()
	sb.recharge(2)
	sp.outstanding.Add(1)
	sb.release() // one of two references still out
	expectPanic(t, "recharged while", func() { sb.recharge(3) })
}

func TestDebugSegPoolDoubleRecycle(t *testing.T) {
	sp := newSegPool(2048, 4)
	sb := sp.get()
	sb.recharge(1)
	sp.outstanding.Add(1)
	sb.release() // last reference: sp.put(sb)
	expectPanic(t, "recycled twice", func() { sp.put(sb) })
}
