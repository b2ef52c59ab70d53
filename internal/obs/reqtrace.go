package obs

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing: the per-request half of the observability layer. The
// Recorder above captures a *run* (per-rank, per-round phase spans); a
// Tracer captures *requests* as they cross the serving cluster — kload
// mints a trace context, kproxy and every kserve replica continue it over
// the W3C traceparent header, and each process keeps its own bounded span
// buffer. kmertools trace-join (JoinTraces) merges the per-process dumps
// into one Chrome/Perfetto trace keyed by trace ID, so a single hedged
// lookup is visible end-to-end: router admission, both hedge attempts,
// and each replica's server span.
//
// Spans carry wall-clock (unix) timestamps, not recorder-epoch offsets:
// the processes being joined share a machine clock, not an epoch.
//
// A nil *Tracer is valid and free, like a nil *Recorder: every method
// nil-checks, and an unsampled SpanContext short-circuits before any
// allocation, so the kserve point lookup stays at zero allocations with
// tracing wired in but off (pinned by TestLookupAllocRegression).

// TraceID is a 128-bit trace identifier shared by every span of one
// request; SpanID is a 64-bit per-span identifier.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is all-zero (invalid per W3C trace
// context).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all-zero.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated slice of a trace: which trace the request
// belongs to, which span is the current parent, and whether the head-based
// sampling decision (made once, at the root) kept it. The zero value is
// "not traced" and makes every downstream operation a no-op.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context identifies a real trace (nonzero trace
// and span IDs, per the W3C trace-context invalid-value rule).
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// TraceparentHeader is the HTTP header a trace context travels in.
const TraceparentHeader = "traceparent"

// Traceparent renders the context in W3C traceparent form:
// "00-<32 hex trace>-<16 hex span>-<2 hex flags>", flags bit 0 = sampled.
func (c SpanContext) Traceparent() string {
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent value. Malformed headers —
// wrong field lengths, non-hex digits, uppercase hex, an unknown version,
// or all-zero IDs — are rejected with an error; callers treat a rejected
// header as "no incoming trace" rather than failing the request.
func ParseTraceparent(s string) (SpanContext, error) {
	// version(2) '-' trace(32) '-' span(16) '-' flags(2)
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad shape", s)
	}
	ver, ok := hexByte(s[0], s[1])
	if !ok || ver == 0xff {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad version", s)
	}
	var c SpanContext
	for i := 0; i < 16; i++ {
		b, ok := hexByte(s[3+2*i], s[4+2*i])
		if !ok {
			return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad trace id", s)
		}
		c.Trace[i] = b
	}
	for i := 0; i < 8; i++ {
		b, ok := hexByte(s[36+2*i], s[37+2*i])
		if !ok {
			return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad span id", s)
		}
		c.Span[i] = b
	}
	flags, ok := hexByte(s[53], s[54])
	if !ok {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad flags", s)
	}
	if c.Trace.IsZero() || c.Span.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: zero id", s)
	}
	c.Sampled = flags&1 != 0
	return c, nil
}

// hexByte decodes two lowercase-hex digits (the W3C format forbids
// uppercase).
func hexByte(hi, lo byte) (byte, bool) {
	h, ok1 := hexNibble(hi)
	l, ok2 := hexNibble(lo)
	return h<<4 | l, ok1 && ok2
}

func hexNibble(b byte) (byte, bool) {
	switch {
	case b >= '0' && b <= '9':
		return b - '0', true
	case b >= 'a' && b <= 'f':
		return b - 'a' + 10, true
	}
	return 0, false
}

// SpanFromHeader extracts the incoming trace context from h, returning the
// zero (untraced) context when the header is absent or malformed.
func SpanFromHeader(h http.Header) SpanContext {
	v := h.Get(TraceparentHeader)
	if v == "" {
		return SpanContext{}
	}
	c, err := ParseTraceparent(v)
	if err != nil {
		return SpanContext{}
	}
	return c
}

// spanCtxKey carries a SpanContext through a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sc, so tracing flows through call
// chains (HTTP handler → service → shard) without changing signatures.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the SpanContext carried by ctx, or the zero
// (untraced) context.
func SpanFromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// ReqSpan is one completed request-scoped span, shaped for the per-process
// JSON dump (WriteSpans) that kmertools trace-join consumes. Tid groups
// spans onto display threads within the process — "shard 3" on a replica,
// a replica address on the proxy, "client" on the load generator.
type ReqSpan struct {
	Trace   string            `json:"trace"`
	Span    string            `json:"span"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Tid     string            `json:"tid,omitempty"`
	StartNS int64             `json:"start_unix_ns"`
	DurNS   int64             `json:"dur_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// TraceDump is one process's span buffer, the unit trace-join merges.
type TraceDump struct {
	Process string    `json:"process"`
	Dropped uint64    `json:"dropped,omitempty"`
	Spans   []ReqSpan `json:"spans"`
}

// Tracer records request spans for one process. Create with NewTracer; a
// nil Tracer is a valid no-op sink (tracing off).
type Tracer struct {
	process string
	sample  int // root sampling: keep 1 in sample; <=0 never roots
	limit   int // max buffered spans; older spans win, overflow is counted

	ctr     atomic.Uint64 // root admission counter (head sampling)
	dropped atomic.Uint64

	mu    sync.Mutex
	rng   *rand.Rand // ID minting; guarded by mu
	spans []ReqSpan
}

// NewTracer builds a tracer for the named process. sample is the head
// sampling rate for locally minted roots: 1 keeps every request, N keeps 1
// in N, <=0 roots nothing (the tracer still records spans continuing a
// sampled incoming context). limit bounds the span buffer (default 65536);
// once full, new spans are counted as dropped rather than evicting older
// ones, so the head of a burst — the part a smoke test inspects — is kept.
func NewTracer(process string, sample, limit int) *Tracer {
	if limit <= 0 {
		limit = 65536
	}
	return &Tracer{
		process: process,
		sample:  sample,
		limit:   limit,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(os.Getpid())<<32)),
	}
}

// Process returns the tracer's process name ("" for nil).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.process
}

// mintIDs returns a fresh span ID and, when trace is zero, a fresh trace ID.
func (t *Tracer) mintIDs(trace TraceID) (TraceID, SpanID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var span SpanID
	for span.IsZero() {
		u := t.rng.Uint64()
		for i := range span {
			span[i] = byte(u >> (8 * i))
		}
	}
	for trace.IsZero() {
		hi, lo := t.rng.Uint64(), t.rng.Uint64()
		for i := 0; i < 8; i++ {
			trace[i] = byte(hi >> (8 * i))
			trace[8+i] = byte(lo >> (8 * i))
		}
	}
	return trace, span
}

// ReqSpanHandle is an open request span. The zero handle (nil tracer,
// unsampled parent) is valid and free: SetAttr and End do nothing.
type ReqSpanHandle struct {
	t      *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	tid    string
	start  time.Time
	attrs  map[string]string
}

// StartRoot opens a new root span, minting a trace ID, if this request
// passes head sampling (1 in sample); otherwise it returns a zero handle
// and the request proceeds untraced end-to-end.
func (t *Tracer) StartRoot(name, tid string) ReqSpanHandle {
	if t == nil || t.sample <= 0 {
		return ReqSpanHandle{}
	}
	if t.sample > 1 && (t.ctr.Add(1)-1)%uint64(t.sample) != 0 {
		return ReqSpanHandle{}
	}
	trace, span := t.mintIDs(TraceID{})
	return ReqSpanHandle{
		t:     t,
		sc:    SpanContext{Trace: trace, Span: span, Sampled: true},
		name:  name,
		tid:   tid,
		start: time.Now(),
	}
}

// StartSpan opens a child span of parent. When parent is unsampled (or the
// tracer nil) it returns a zero handle, so the sampling decision made at
// the root silently disables the whole downstream tree.
func (t *Tracer) StartSpan(parent SpanContext, name, tid string) ReqSpanHandle {
	if t == nil || !parent.Sampled || !parent.Valid() {
		return ReqSpanHandle{}
	}
	_, span := t.mintIDs(parent.Trace)
	return ReqSpanHandle{
		t:      t,
		sc:     SpanContext{Trace: parent.Trace, Span: span, Sampled: true},
		parent: parent.Span,
		name:   name,
		tid:    tid,
		start:  time.Now(),
	}
}

// StartServer opens the server-side span for an incoming HTTP request:
// continue the header's context when one arrived sampled, otherwise make a
// local root-sampling decision (covers curl and harnesses that don't
// propagate). A malformed traceparent is treated as absent.
func (t *Tracer) StartServer(h http.Header, name, tid string) ReqSpanHandle {
	if t == nil {
		return ReqSpanHandle{}
	}
	if sc := SpanFromHeader(h); sc.Valid() {
		if !sc.Sampled {
			return ReqSpanHandle{}
		}
		return t.StartSpan(sc, name, tid)
	}
	return t.StartRoot(name, tid)
}

// Context returns the handle's span context, the value to propagate to
// children (header injection, ContextWithSpan). Zero for a zero handle.
func (h ReqSpanHandle) Context() SpanContext { return h.sc }

// Sampled reports whether the handle records anything.
func (h ReqSpanHandle) Sampled() bool { return h.t != nil }

// SetAttr attaches a key=value annotation ("outcome"="winner",
// "replica"=addr). No-op on a zero handle.
func (h *ReqSpanHandle) SetAttr(k, v string) {
	if h.t == nil {
		return
	}
	if h.attrs == nil {
		h.attrs = make(map[string]string, 4)
	}
	h.attrs[k] = v
}

// End closes the span and buffers it. No-op on a zero handle. Like SetAttr
// it takes the handle by pointer, so `defer span.End()` records the
// attributes set between the defer statement and the return.
func (h *ReqSpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.record(ReqSpan{
		Trace:   h.sc.Trace.String(),
		Span:    h.sc.Span.String(),
		Parent:  parentString(h.parent),
		Name:    h.name,
		Tid:     h.tid,
		StartNS: h.start.UnixNano(),
		DurNS:   int64(time.Since(h.start)),
		Attrs:   h.attrs,
	})
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

func (t *Tracer) record(sp ReqSpan) {
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Len returns the number of buffered spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Snapshot copies the buffered spans, ordered by start time.
func (t *Tracer) Snapshot() []ReqSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]ReqSpan(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].StartNS < out[b].StartNS })
	return out
}

// Dump snapshots the buffer as a TraceDump.
func (t *Tracer) Dump() TraceDump {
	if t == nil {
		return TraceDump{Spans: []ReqSpan{}}
	}
	return TraceDump{Process: t.process, Dropped: t.dropped.Load(), Spans: t.Snapshot()}
}

// WriteSpans writes the process's span dump as JSON — the -trace-out /
// GET /debug/trace payload, and trace-join's input. A nil tracer writes a
// valid empty dump.
func (t *Tracer) WriteSpans(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Dump())
}

// WriteSpansFile writes the dump to path (the -trace-out flag).
func (t *Tracer) WriteSpansFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DebugHandler serves the live span buffer as JSON — mounted at
// /debug/trace on kserve and kproxy so a smoke script can collect dumps
// without waiting for a graceful shutdown.
func (t *Tracer) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteSpans(w)
	})
}

// ReadTraceDump parses one process's span dump.
func ReadTraceDump(r io.Reader) (TraceDump, error) {
	var d TraceDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return TraceDump{}, err
	}
	return d, nil
}

// JoinTraces merges per-process span dumps into one Chrome trace-event
// JSON document (Perfetto-loadable): pid = process (dump order), tid =
// the span's Tid group within that process, and every event's args carry
// the trace/span/parent IDs plus the process name, so a single request
// can be filtered across processes by its trace ID. Timestamps are
// re-based to the earliest span so the trace starts at zero.
func JoinTraces(w io.Writer, dumps []TraceDump) error {
	var origin int64
	first := true
	for _, d := range dumps {
		for _, sp := range d.Spans {
			if first || sp.StartNS < origin {
				origin = sp.StartNS
				first = false
			}
		}
	}

	f := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	var body []traceEvent
	for pi, d := range dumps {
		pid := pi + 1
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": d.Process},
		})
		// Stable thread numbering: tids sorted by name within the process.
		names := map[string]bool{}
		for _, sp := range d.Spans {
			names[sp.Tid] = true
		}
		ordered := make([]string, 0, len(names))
		for n := range names {
			ordered = append(ordered, n)
		}
		sort.Strings(ordered)
		tids := make(map[string]int, len(ordered))
		for i, n := range ordered {
			tids[n] = i
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: i,
				Args: map[string]any{"name": threadName(n)},
			})
		}
		for _, sp := range d.Spans {
			dur := float64(sp.DurNS) / 1e3
			args := map[string]any{
				"trace": sp.Trace,
				"span":  sp.Span,
				"proc":  d.Process,
			}
			if sp.Parent != "" {
				args["parent"] = sp.Parent
			}
			for k, v := range sp.Attrs {
				args[k] = v
			}
			body = append(body, traceEvent{
				Name: sp.Name, Ph: "X", Pid: pid, Tid: tids[sp.Tid],
				Ts: float64(sp.StartNS-origin) / 1e3, Dur: &dur, Args: args,
			})
		}
	}
	// Same deterministic order as WriteTrace: by timestamp, longer spans
	// first at equal start, then by pid/tid.
	sort.SliceStable(body, func(a, b int) bool {
		if body[a].Ts != body[b].Ts {
			return body[a].Ts < body[b].Ts
		}
		da, db := 0.0, 0.0
		if body[a].Dur != nil {
			da = *body[a].Dur
		}
		if body[b].Dur != nil {
			db = *body[b].Dur
		}
		if da != db {
			return da > db
		}
		if body[a].Pid != body[b].Pid {
			return body[a].Pid < body[b].Pid
		}
		return body[a].Tid < body[b].Tid
	})
	f.TraceEvents = append(f.TraceEvents, body...)
	return json.NewEncoder(w).Encode(f)
}

func threadName(tid string) string {
	if tid == "" {
		return "main"
	}
	return tid
}
