package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/transport"
)

// The traced run cuts spans at every layer boundary from outside the
// program: the harness drives each endpoint's event loop itself with
// the public calls that make up Rpc.RunEventLoop, hands core a
// Transport wrapped in a recording decorator, and brackets its own
// handler and continuation. In-program spans are a later issue
// (ROADMAP item 5).

type spanKind uint8

const (
	spRunOnce spanKind = iota // one RunEventLoopOnce; parent of everything below
	spPark                    // WaitForWork after an idle iteration; Arg = requested ns
	spRecv                    // Transport.RecvBurst; Arg = frames returned
	spSend                    // Transport.SendBurst; Arg = frames sent
	spHandler                 // the harness's request handler (the "application")
	spCont                    // the harness's continuation
	spEnqueue                 // calls back into core from app code: EnqueueRequest / AllocResponse+EnqueueResponse
	spRPC                     // one request, EnqueueRequest → continuation; not on the goroutine's stack
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"core.run_once", "core.park", "transport.recv_burst", "transport.send_burst",
	"app.handler", "app.cont", "core.enqueue", "rpc",
}

// span is one recorded interval. Parent is the index, in the same
// tracer's buffer, of the span that was open when this one began (-1
// at top level): a transport span's parent is the iteration that
// caused it. RPC is the 8-byte request id carried in the payload, so
// the client's rpc/app.cont spans and the server's app.handler span of
// one request share an identifier.
type span struct {
	Kind       spanKind
	Parent     int32
	Start, End int64 // ns since the tracer's epoch
	Arg        int64
	RPC        uint64
}

type openSpan struct {
	kind  spanKind
	idx   int32 // slot in tracer.spans, -1 once the buffer is full
	start int64
	child int64 // ns covered by already-closed children
}

// tracer records the spans of one goroutine. Spans go into a pre-sized
// buffer (no allocation while measuring); when it fills, recording
// stops but the per-kind accumulators the ledger is built from keep
// counting, so the ledger always covers the whole run.
type tracer struct {
	name  string
	epoch time.Time
	spans []span
	stack [8]openSpan
	depth int

	started bool
	traceAgg
}

// traceAgg is what a tracer has accumulated; the harness copies it out
// at the end of the measured window (snapshot), so the drain that
// follows does not enter the ledger.
type traceAgg struct {
	self   [numSpanKinds]int64 // ns not covered by children
	count  [numSpanKinds]int64
	argSum [numSpanKinds]int64

	first, last int64 // first top-level start, last top-level end
	stored      int   // spans in the buffer
	dropped     int64 // spans that found it full

	emptyIters  int64 // run_once spans that moved no packet
	rxNonEmpty  int64 // recv_burst spans that returned >= 1 frame
	parkOverNs  int64 // sum of (actual - requested) over parks that ran to their timer
	parkOverCnt int64
}

// maxStoredSpans bounds one tracer's buffer (and so the trace file).
const maxStoredSpans = 200_000

func newTracer(name string, epoch time.Time) *tracer {
	return &tracer{name: name, epoch: epoch, spans: make([]span, 0, maxStoredSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops everything recorded so far (end of warm-up). It runs
// from a posted closure, that is inside an open run_once span: open
// spans restart now and are no longer stored.
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.traceAgg = traceAgg{}
	now := t.now()
	for i := 0; i < t.depth; i++ {
		t.stack[i] = openSpan{kind: t.stack[i].kind, idx: -1, start: now}
	}
	t.started, t.first = t.depth > 0, now
}

func (t *tracer) begin(kind spanKind, rpc uint64) {
	idx, parent := int32(-1), int32(-1)
	if t.depth > 0 {
		parent = t.stack[t.depth-1].idx
	}
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Kind: kind, Parent: parent, RPC: rpc})
	} else {
		t.dropped++
	}
	o := &t.stack[t.depth]
	t.depth++
	o.kind, o.idx, o.child = kind, idx, 0
	// The clock is read last on begin and first on end, so tracer
	// bookkeeping lands in the parent (or the gap), not in the span.
	o.start = t.now()
	if t.depth == 1 && !t.started {
		t.started, t.first = true, o.start
	}
}

func (t *tracer) end(arg int64) {
	now := t.now()
	t.depth--
	o := &t.stack[t.depth]
	dur := now - o.start
	t.self[o.kind] += dur - o.child
	t.count[o.kind]++
	t.argSum[o.kind] += arg
	if t.depth > 0 {
		t.stack[t.depth-1].child += dur
	} else {
		t.last = now
	}
	if o.idx >= 0 {
		s := &t.spans[o.idx]
		s.Start, s.End, s.Arg = o.start, now, arg
	}
	switch o.kind {
	case spRunOnce:
		if arg == 0 {
			t.emptyIters++
		}
	case spRecv:
		if arg > 0 {
			t.rxNonEmpty++
		}
	case spPark:
		if dur >= arg {
			t.parkOverNs += dur - arg
			t.parkOverCnt++
		}
	}
}

// async records a span that is not nested on this goroutine's stack
// (the life of one RPC). It does not enter the ledger.
func (t *tracer) async(kind spanKind, rpc uint64, start, end int64) {
	t.count[kind]++
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{Kind: kind, Parent: -1, Start: start, End: end, RPC: rpc})
	} else {
		t.dropped++
	}
}

// ledger splits this goroutine's wall time into the four places it
// can go plus what no span covers (loop control and the tracer's own
// bookkeeping between top-level spans).
type ledger struct {
	wall, core, transport, app, park int64
}

// snapshot closes the books at the end of the measured window.
func (t *tracer) snapshot() traceAgg {
	a := t.traceAgg
	a.last, a.stored = t.now(), len(t.spans)
	return a
}

func (t *traceAgg) ledger() ledger {
	return ledger{
		wall:      t.last - t.first,
		core:      t.self[spRunOnce] + t.self[spEnqueue],
		transport: t.self[spRecv] + t.self[spSend],
		app:       t.self[spHandler] + t.self[spCont],
		park:      t.self[spPark],
	}
}

// unattributedShare is |wall - (core+transport+app+park)| / wall.
func (l ledger) unattributedShare() float64 {
	if l.wall <= 0 {
		return 1
	}
	d := float64(l.wall - (l.core + l.transport + l.app + l.park))
	if d < 0 {
		d = -d
	}
	return d / float64(l.wall)
}

// tracedTransport is the recording decorator handed to core as
// Config.Transport in a traced run.
type tracedTransport struct {
	transport.Transport
	tr *tracer
}

func (t *tracedTransport) RecvBurst(frames []transport.Frame) int {
	t.tr.begin(spRecv, 0)
	n := t.Transport.RecvBurst(frames)
	t.tr.end(int64(n))
	return n
}

func (t *tracedTransport) SendBurst(frames []transport.Frame) {
	t.tr.begin(spSend, 0)
	t.Transport.SendBurst(frames)
	t.tr.end(int64(len(frames)))
}

// writeTrace writes the recorded spans of one traced run as JSON.
func writeTrace(path, workload string, tracers []*tracer, aggs []traceAgg) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"time_unit\":\"ns since epoch\",\"epoch_unix_ns\":%d,\"goroutines\":[", workload, tracers[0].epoch.UnixNano())
	for ti, t := range tracers {
		if ti > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"spans_not_stored\":%d,\"spans\":[", t.name, aggs[ti].dropped)
		for i := range t.spans[:aggs[ti].stored] {
			s := &t.spans[i]
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "\n{\"i\":%d,\"name\":%q,\"parent\":%d,\"start\":%d,\"end\":%d,\"arg\":%d,\"rpc\":%d}",
				i, spanNames[s.Kind], s.Parent, s.Start, s.End, s.Arg, s.RPC)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
