package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer("test", 1)
	root := tr.StartRoot("req", "client")
	sc := root.Context()
	if !sc.Valid() || !sc.Sampled {
		t.Fatalf("root context %+v not valid+sampled", sc)
	}
	hdr := sc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q has wrong shape", hdr)
	}
	back, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if back != sc {
		t.Fatalf("round trip %+v != %+v", back, sc)
	}
	// Unsampled flag survives too.
	un := SpanContext{Trace: sc.Trace, Span: sc.Span, Sampled: false}
	back, err = ParseTraceparent(un.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if back.Sampled {
		t.Fatal("unsampled context parsed as sampled")
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-abc-def-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", // non-hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x",
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want rejection", s)
		}
	}
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, err := ParseTraceparent(good)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", good, err)
	}
	if sc.Trace.String() != "4bf92f3577b34da6a3ce929d0e0e4736" || sc.Span.String() != "00f067aa0ba902b7" || !sc.Sampled {
		t.Fatalf("parsed %+v from %q", sc, good)
	}
}

func TestSpanFromHeader(t *testing.T) {
	h := http.Header{}
	if sc := SpanFromHeader(h); sc.Valid() {
		t.Fatal("absent header produced a valid context")
	}
	h.Set(TraceparentHeader, "garbage")
	if sc := SpanFromHeader(h); sc.Valid() {
		t.Fatal("malformed header produced a valid context")
	}
	h.Set(TraceparentHeader, "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if sc := SpanFromHeader(h); !sc.Valid() || !sc.Sampled {
		t.Fatalf("valid header produced %+v", sc)
	}
}

func TestNilAndUnsampledTracerAreFree(t *testing.T) {
	var nilT *Tracer
	h := nilT.StartRoot("x", "")
	h.SetAttr("k", "v")
	h.End()
	c := nilT.StartSpan(SpanContext{}, "x", "")
	c.End()
	if nilT.Len() != 0 || nilT.Snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
	var sb bytes.Buffer
	if err := nilT.WriteSpans(&sb); err != nil {
		t.Fatal(err)
	}

	tr := NewTracer("p", 0) // sample 0: never roots
	if h := tr.StartRoot("x", ""); h.Sampled() {
		t.Fatal("sample=0 tracer rooted a span")
	}
	// An unsampled parent disables the downstream tree.
	if h := tr.StartSpan(SpanContext{}, "x", ""); h.Sampled() {
		t.Fatal("zero parent produced a sampled child")
	}
	if tr.Len() != 0 {
		t.Fatalf("tracer buffered %d spans, want 0", tr.Len())
	}
}

func TestHeadSampling(t *testing.T) {
	tr := NewTracer("p", 4)
	kept := 0
	for i := 0; i < 100; i++ {
		h := tr.StartRoot("req", "")
		if h.Sampled() {
			kept++
			h.End()
		}
	}
	if kept != 25 {
		t.Fatalf("1-in-4 sampling kept %d of 100", kept)
	}
	if tr.Len() != 25 {
		t.Fatalf("buffered %d spans, want 25", tr.Len())
	}
}

func TestBufferLimitCountsDrops(t *testing.T) {
	tr := NewTracer("p", 1)
	for i := 0; i < spanLimit+6; i++ {
		h := tr.StartRoot("req", "")
		h.End()
	}
	d := tr.Dump()
	if len(d.Spans) != spanLimit || d.Dropped != 6 {
		t.Fatalf("dump has %d spans, %d dropped; want %d and 6", len(d.Spans), d.Dropped, spanLimit)
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := NewTracer("proxy", 1)
	root := tr.StartRoot("request", "client")
	child := tr.StartSpan(root.Context(), "attempt", "replica:1")
	child.SetAttr("hedged", "true")
	child.SetAttr("outcome", "winner")
	if child.Context().Trace != root.Context().Trace {
		t.Fatal("child left the trace")
	}
	if child.Context().Span == root.Context().Span {
		t.Fatal("child reused the parent span id")
	}
	child.End()
	grandchild := tr.StartSpan(child.Context(), "read", "replica:1")
	grandchild.End()
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]ReqSpan{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Trace != root.Context().Trace.String() {
			t.Fatalf("span %q on trace %s, want %s", sp.Name, sp.Trace, root.Context().Trace)
		}
	}
	if byName["request"].Parent != "" {
		t.Fatal("root span has a parent")
	}
	if byName["attempt"].Parent != root.Context().Span.String() {
		t.Fatal("attempt span not parented to the root")
	}
	if byName["read"].Parent != byName["attempt"].Span {
		t.Fatal("grandchild span not parented to the attempt")
	}
	if byName["attempt"].Attrs["outcome"] != "winner" || byName["attempt"].Attrs["hedged"] != "true" {
		t.Fatalf("attempt attrs = %v", byName["attempt"].Attrs)
	}
}

// TestContextCarriage pins the context.Context plumbing handlers use to
// hand the span context to the service layer.
func TestContextCarriage(t *testing.T) {
	if sc := SpanFromContext(context.Background()); sc.Valid() {
		t.Fatal("background context carries a span")
	}
	tr := NewTracer("p", 1)
	h := tr.StartRoot("req", "")
	ctx := ContextWithSpan(context.Background(), h.Context())
	if got := SpanFromContext(ctx); got != h.Context() {
		t.Fatalf("carried %+v, want %+v", got, h.Context())
	}
}

func TestStartServerContinuesOrRoots(t *testing.T) {
	tr := NewTracer("serve", 1)
	up := NewTracer("client", 1)
	root := up.StartRoot("request", "")

	hdr := http.Header{}
	hdr.Set(TraceparentHeader, root.Context().Traceparent())
	h := tr.StartServer(hdr, "serve", "http")
	if h.Context().Trace != root.Context().Trace {
		t.Fatal("server span did not continue the incoming trace")
	}
	h.End()

	// Unsampled incoming context: respect the upstream decision.
	un := SpanContext{Trace: root.Context().Trace, Span: root.Context().Span}
	hdr.Set(TraceparentHeader, un.Traceparent())
	if h := tr.StartServer(hdr, "serve", "http"); h.Sampled() {
		t.Fatal("server sampled a request upstream chose not to")
	}

	// No header: local root decision.
	h = tr.StartServer(http.Header{}, "serve", "http")
	if !h.Sampled() {
		t.Fatal("sample=1 server did not root a headerless request")
	}
	h.End()
}

func TestDumpRoundTripAndDebugHandler(t *testing.T) {
	tr := NewTracer("kproxy", 1)
	h2 := tr.StartRoot("request", "client")
	h2.End()

	var sb bytes.Buffer
	if err := tr.WriteSpans(&sb); err != nil {
		t.Fatal(err)
	}
	d, err := ReadTraceDump(bytes.NewReader(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Process != "kproxy" || len(d.Spans) != 1 {
		t.Fatalf("dump %+v", d)
	}

	rr := httptest.NewRecorder()
	tr.DebugHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	d2, err := ReadTraceDump(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Process != "kproxy" || len(d2.Spans) != 1 {
		t.Fatalf("debug handler dump %+v", d2)
	}
}

// TestJoinTraces merges dumps from three synthetic processes and checks
// the Chrome trace shape trace-join promises: process/thread metadata,
// pid = dump order, args carrying trace/span/proc, re-based timestamps.
func TestJoinTraces(t *testing.T) {
	client := NewTracer("kload", 1)
	proxy := NewTracer("kproxy", 1)
	replica := NewTracer("r0a", 1)

	root := client.StartRoot("request", "client")
	att := proxy.StartSpan(root.Context(), "attempt", "r0a")
	att.SetAttr("outcome", "winner")
	serve := replica.StartSpan(att.Context(), "kserve_batch", "http")
	read := replica.StartSpan(serve.Context(), "read", "worker")
	read.End()
	serve.End()
	att.End()
	root.End()

	var sb bytes.Buffer
	err := JoinTraces(&sb, []TraceDump{client.Dump(), proxy.Dump(), replica.Dump()})
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(sb.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	var spans, meta int
	traceID := root.Context().Trace.String()
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if ev.Args["trace"] != traceID {
				t.Fatalf("event %q on trace %v, want %s", ev.Name, ev.Args["trace"], traceID)
			}
			procs[ev.Args["proc"].(string)] = true
			if ev.Ts < 0 {
				t.Fatalf("event %q has negative ts %v", ev.Name, ev.Ts)
			}
		}
	}
	if spans != 4 {
		t.Fatalf("joined %d spans, want 4", spans)
	}
	// 3 process_name entries + one thread_name per distinct tid (client,
	// r0a, http, worker).
	if meta != 3+4 {
		t.Fatalf("joined %d metadata events, want 7", meta)
	}
	for _, p := range []string{"kload", "kproxy", "r0a"} {
		if !procs[p] {
			t.Fatalf("trace %s does not span process %s (got %v)", traceID, p, procs)
		}
	}
}

// TestTracerConcurrent exercises rooting, child spans, recording and
// dumping from many goroutines (run under -race).
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("p", 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.StartRoot("req", "client")
				child := tr.StartSpan(root.Context(), "attempt", "r")
				child.SetAttr("i", "x")
				child.End()
				wait := tr.StartSpan(root.Context(), "wait", "r")
				wait.End()
				root.End()
				if i%50 == 0 {
					_ = tr.Snapshot()
					var sb bytes.Buffer
					_ = tr.WriteSpans(&sb)
				}
			}
		}()
	}
	wg.Wait()
	// 8*200 roots at 1-in-2 → 800 sampled, 3 spans each.
	if got := tr.Len(); got != 2400 {
		t.Fatalf("buffered %d spans, want 2400", got)
	}
}

func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("01-ffffffffffffffffffffffffffffffff-ffffffffffffffff-ff")
	f.Add("")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("zz-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-zzzzzzzzzzzzzzzz-zz")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 ")
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			return // rejected is fine; no panic is the property
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, sc)
		}
		// Accepted contexts must round-trip through the canonical form.
		back, err := ParseTraceparent(sc.Traceparent())
		if err != nil {
			t.Fatalf("canonical form of %q rejected: %v", s, err)
		}
		if back != sc {
			t.Fatalf("round trip %+v != %+v (input %q)", back, sc, s)
		}
	})
}
