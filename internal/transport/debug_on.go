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
// the pool and SegBuf lifecycles, compiled in only under -tags
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
//   - SegBuf refcount underflow: more segment releases than the split
//     charged — a release-after-send/double-release on the GRO path.
//   - SegBuf recharge while in flight: splitRxSegs reusing a buffer
//     whose previous segments are still referenced by RX frames.
//   - segPool double-recycle: the same SegBuf returned to the free
//     list twice.
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

// segDebug is the segPool's sanitizer state: which SegBufs sit on the
// free list.
type segDebug struct {
	mu     sync.Mutex
	inFree map[*SegBuf]bool
}

func (d *segDebug) onGet(sb *SegBuf) {
	d.mu.Lock()
	delete(d.inFree, sb)
	d.mu.Unlock()
}

func (d *segDebug) onPut(sb *SegBuf) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inFree[sb] {
		panic("erpcdebug: SegBuf recycled twice (double release of its last segment)")
	}
	if d.inFree == nil {
		d.inFree = make(map[*SegBuf]bool)
	}
	d.inFree[sb] = true
}

// segDebugCheckRelease panics on refcount underflow: release was
// called more times than splitRxSegs charged.
func segDebugCheckRelease(sb *SegBuf, refsAfter int32) {
	if refsAfter < 0 {
		panic(fmt.Sprintf("erpcdebug: SegBuf refcount underflow (refs=%d after release): segment released twice or after recycle", refsAfter))
	}
}

// segDebugCheckRecharge panics when a SegBuf is recharged while
// earlier segment frames still hold references.
func segDebugCheckRecharge(sb *SegBuf) {
	if refs := sb.refs.Load(); refs != 0 {
		panic(fmt.Sprintf("erpcdebug: SegBuf recharged while %d segment reference(s) still in flight", refs))
	}
}
