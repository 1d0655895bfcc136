//go:build erpcdebug

package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"unsafe"
)

// This file is the erpcdebug sanitizer: runtime assertions wired into
// the pool and RX-frame lifecycles, compiled in only under -tags
// erpcdebug (CI runs the full suite with it plus -race). The checks
// catch the lifetime bugs the static analyzers cannot prove absent:
//
//   - pool double-put: a buffer returned twice — which is also how a
//     Frame double-release manifests when the frame was copied, since
//     Release on the copy re-Puts the same backing array. The panic
//     carries the acquisition site and the first release site.
//   - foreign fast-path put: Pool.Put from a goroutine other than the
//     one the buffer was handed out on (the owner); cross-goroutine
//     returns must use PutShared.
//   - receive over held frames: a UDP receive into a window that still
//     holds a frame RecvBurst handed out and nobody released — the
//     owner broke the rule that every frame of a burst is released
//     before its next RecvBurst or Wait. The panic names the hand-out
//     site.
//
// DebugEnabled lets tests (and alloc assertions) detect the build.
const DebugEnabled = true

// curGID returns the current goroutine's id, parsed from the
// "goroutine N [...]" line of a stack trace. Debug builds only; the
// parse costs far too much for a release datapath.
func curGID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(string(s), 10, 64)
	return id
}

// site formats the file:line that called into the pool, skip frames up
// the stack from the caller of site.
func site(skip int) string {
	_, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return "unknown"
	}
	return fmt.Sprintf("%s:%d", file, line)
}

// bufRecord tracks one pool buffer's most recent lifecycle.
type bufRecord struct {
	live    bool
	gid     int64  // goroutine the buffer was handed out on
	getSite string // acquisition site
	putSite string // site of the release that retired it
}

// poolDebug is the Pool's sanitizer state: every buffer the pool has
// handed out, keyed by its backing array.
type poolDebug struct {
	mu  sync.Mutex
	out map[*byte]*bufRecord
}

// onGet records an acquisition. Called by Get/GetShared with the
// buffer about to be handed out.
func (d *poolDebug) onGet(b []byte) {
	key := unsafe.SliceData(b[:1])
	getSite := site(2)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.out == nil {
		d.out = make(map[*byte]*bufRecord)
	}
	if rec := d.out[key]; rec != nil && rec.live {
		panic(fmt.Sprintf("erpcdebug: pool handed out a live buffer twice (previous get at %s, this get at %s)",
			rec.getSite, getSite))
	}
	d.out[key] = &bufRecord{live: true, gid: curGID(), getSite: getSite}
}

// onPut checks a return. shared marks the mutex path (PutShared),
// which is legal from any goroutine; the fast path must
// run on the goroutine the buffer was acquired on.
func (d *poolDebug) onPut(b []byte, shared bool) {
	key := unsafe.SliceData(b[:1])
	putSite := site(2)
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := d.out[key]
	if rec == nil {
		// A buffer this pool never handed out (tests feed pools
		// hand-made buffers); nothing to check.
		return
	}
	if !rec.live {
		panic(fmt.Sprintf("erpcdebug: pool buffer double put (acquired at %s, first released at %s, released again at %s)",
			rec.getSite, rec.putSite, putSite))
	}
	if !shared {
		if gid := curGID(); gid != rec.gid {
			panic(fmt.Sprintf("erpcdebug: Pool.Put fast path off the owner goroutine (buffer acquired at %s on goroutine %d, put at %s on goroutine %d; use PutShared)",
				rec.getSite, rec.gid, putSite, gid))
		}
	}
	rec.live = false
	rec.putSite = putSite
}

// rxDebug is the UDP transport's sanitizer state: per receive window,
// how many frames handed out of it are not yet released, and where the
// latest was handed out. The owner alone touches it, as it does the
// windows. frameDebug points an RX frame at its window's count.
type rxDebug struct{ win [2]winDebug }
type winDebug struct {
	out  int
	site string
}
type frameDebug struct{ win *winDebug }

// onStage records that f was received into window w.
func (d *rxDebug) onStage(f *Frame, w int) { f.dbg.win = &d.win[w] }

// onTake counts frames handed out against their windows. Called by
// takeRx from RecvBurst; the hand-out site is RecvBurst's caller.
func (d *rxDebug) onTake(frames []Frame) {
	if len(frames) == 0 {
		return
	}
	at := site(3)
	for i := range frames {
		wd := frames[i].dbg.win
		wd.out++
		wd.site = at
	}
}

// onRecv panics when a receive is about to fill window w while frames
// handed out of it are still held.
func (d *rxDebug) onRecv(w int) {
	if wd := &d.win[w]; wd.out > 0 {
		panic(fmt.Sprintf("erpcdebug: receive into an RX window that holds %d unreleased frame(s), handed out at %s: release every frame of a burst before the next RecvBurst or Wait",
			wd.out, wd.site))
	}
}

// release uncounts a handed-out frame, once. A frame the transport
// never handed out (a TX or pooled frame) has no window.
func (f *frameDebug) release() {
	if f.win != nil {
		f.win.out--
		f.win = nil
	}
}
