package kserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/obs"
)

// sampleDB builds a deterministic database of n-ish distinct k-mers.
func sampleDB(t testing.TB, k, n int, seed int64, flags uint32) *kcount.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := kcount.NewTable(n, kcount.Linear)
	mask := uint64(dna.KmerMask(k))
	for i := 0; i < n*3; i++ {
		key := rng.Uint64() % (mask + 1)
		if flags&kcount.FlagCanonical != 0 {
			key = uint64(dna.Kmer(key).Canonical(&dna.Random, k))
		}
		tab.Inc(key)
	}
	return kcount.FromTable(tab, k, flags)
}

func newService(t testing.TB, db *kcount.Database, opts Options) *Service {
	t.Helper()
	svc, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func TestServiceLookupMatchesDatabase(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 2_000, 1, 0)
	svc := newService(t, db, Options{})
	ctx := context.Background()

	for _, e := range db.Entries {
		got, err := svc.LookupKey(ctx, e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if want := db.Get(e.Key); got != want {
			t.Fatalf("LookupKey(%#x) = %d, want %d", e.Key, got, want)
		}
	}
	// ASCII path agrees with the packed path.
	for _, e := range db.Entries[:50] {
		seq := dna.Kmer(e.Key).String(&dna.Random, k)
		got, err := svc.Lookup(ctx, seq)
		if err != nil {
			t.Fatal(err)
		}
		if got != e.Count {
			t.Fatalf("Lookup(%q) = %d, want %d", seq, got, e.Count)
		}
	}
	// Absent keys are 0, nil.
	absent := 0
	for key := uint64(0); absent < 20; key++ {
		if db.Get(key) != 0 {
			continue
		}
		absent++
		if got, err := svc.LookupKey(ctx, key); err != nil || got != 0 {
			t.Fatalf("absent LookupKey(%#x) = %d, %v", key, got, err)
		}
	}
	// Malformed queries error.
	for _, bad := range []string{"", "ACGT", strings.Repeat("A", k-1), strings.Repeat("A", k)[:k-1] + "N"} {
		if _, err := svc.Lookup(ctx, bad); err == nil {
			t.Errorf("Lookup(%q) accepted", bad)
		}
	}
}

func TestServiceCanonical(t *testing.T) {
	const k = 9
	db := sampleDB(t, k, 500, 2, kcount.FlagCanonical)
	svc := newService(t, db, Options{})
	ctx := context.Background()
	if !svc.Canonical() {
		t.Fatal("canonical flag lost")
	}
	e := &dna.Random
	for _, kv := range db.Entries[:50] {
		fwd := dna.Kmer(kv.Key).String(e, k)
		rc := dna.Kmer(kv.Key).ReverseComplement(e, k).String(e, k)
		a, err := svc.Lookup(ctx, fwd)
		if err != nil {
			t.Fatal(err)
		}
		b, err := svc.Lookup(ctx, rc)
		if err != nil {
			t.Fatal(err)
		}
		if a != kv.Count || b != kv.Count {
			t.Fatalf("strands disagree for %q: fwd %d, rc %d, want %d", fwd, a, b, kv.Count)
		}
	}
}

func TestServiceBatch(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1_000, 3, 0)
	svc := newService(t, db, Options{})
	ctx := context.Background()

	var seqs []string
	var want []uint32
	for _, e := range db.Entries[:200] {
		seqs = append(seqs, dna.Kmer(e.Key).String(&dna.Random, k))
		want = append(want, e.Count)
	}
	// Duplicates ride along.
	seqs = append(seqs, seqs[0], seqs[1])
	want = append(want, want[0], want[1])
	keys := make([]uint64, len(seqs))
	for i, q := range seqs {
		key, err := svc.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	got := make([]uint32, len(keys))
	if err := svc.LookupKeysInto(ctx, keys, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch[%d] (%s) = %d, want %d", i, seqs[i], got[i], want[i])
		}
	}
	if err := svc.LookupKeysInto(ctx, keys, got[1:]); err == nil {
		t.Fatal("short out slice accepted")
	}
}

func TestServiceClose(t *testing.T) {
	db := sampleDB(t, 17, 200, 6, 0)
	svc, err := New(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	if !svc.Draining() {
		t.Fatal("Draining() false after Close")
	}
	if _, err := svc.LookupKey(context.Background(), db.Entries[0].Key); err != ErrClosed {
		t.Fatalf("lookup after close: %v, want ErrClosed", err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1_000, 7, 0)
	svc := newService(t, db, Options{TopN: 16})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	get := func(t *testing.T, path string, wantCode int, into any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("kmer", func(t *testing.T) {
		e := db.Entries[0]
		seq := dna.Kmer(e.Key).String(&dna.Random, k)
		var res KmerResult
		get(t, "/kmer/"+seq, http.StatusOK, &res)
		if res.Count != e.Count || !res.Present || res.Kmer != seq {
			t.Fatalf("point lookup: %+v, want count %d", res, e.Count)
		}
		absent := strings.Repeat("A", k)
		if c, err := db.Lookup(&dna.Random, absent); err != nil || c != 0 {
			t.Fatalf("test setup: %s is in the database (%d, %v)", absent, c, err)
		}
		get(t, "/kmer/"+absent, http.StatusOK, &res)
		if res.Count != 0 || res.Present || res.Kmer != absent {
			t.Fatalf("absent point lookup: %+v, want count 0, not present", res)
		}
		get(t, "/kmer/AC", http.StatusBadRequest, nil)
		get(t, "/kmer/"+strings.Repeat("N", k), http.StatusBadRequest, nil)
	})

	t.Run("batch", func(t *testing.T) {
		var seqs []string
		for _, e := range db.Entries[:25] {
			seqs = append(seqs, dna.Kmer(e.Key).String(&dna.Random, k))
		}
		seqs = append(seqs, strings.Repeat("A", k)) // absent (checked above)
		body, _ := json.Marshal(batchRequest{Kmers: seqs})
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /batch = %d", resp.StatusCode)
		}
		var br batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		if len(br.Results) != len(seqs) {
			t.Fatalf("batch results %d, want %d", len(br.Results), len(seqs))
		}
		for i, r := range br.Results {
			want, _ := db.Lookup(&dna.Random, seqs[i])
			if r.Count != want || r.Present != (want > 0) {
				t.Fatalf("batch[%d] = %+v, want count %d", i, r, want)
			}
		}
		// Malformed body and malformed k-mer are both 400.
		for _, bad := range []string{"{", `{"kmers":["XYZ"]}`} {
			resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(bad))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad batch %q = %d, want 400", bad, resp.StatusCode)
			}
		}
	})

	t.Run("histogram", func(t *testing.T) {
		var hr histogramResponse
		get(t, "/histogram", http.StatusOK, &hr)
		want := db.Histogram()
		if hr.Distinct != want.Distinct() || hr.Total != want.Total() || hr.K != k {
			t.Fatalf("histogram mismatch: %+v", hr)
		}
		for f, c := range want.Counts {
			if hr.Classes[f] != c {
				t.Fatalf("class %d = %d, want %d", f, hr.Classes[f], c)
			}
		}
	})

	t.Run("topn", func(t *testing.T) {
		var tr topNResponse
		get(t, "/topn?n=5", http.StatusOK, &tr)
		want := db.Table().TopK(5)
		if tr.N != 5 || len(tr.Kmers) != 5 {
			t.Fatalf("topn shape: %+v", tr)
		}
		for i, kv := range want {
			if tr.Kmers[i].Count != kv.Count {
				t.Fatalf("top[%d] = %d, want %d", i, tr.Kmers[i].Count, kv.Count)
			}
			// Counts must agree with a point lookup of the same k-mer.
			var res KmerResult
			get(t, "/kmer/"+tr.Kmers[i].Kmer, http.StatusOK, &res)
			if res.Count != kv.Count {
				t.Fatalf("top[%d] point lookup = %d, want %d", i, res.Count, kv.Count)
			}
		}
		get(t, "/topn?n=bogus", http.StatusBadRequest, nil)
	})

	t.Run("healthz", func(t *testing.T) {
		var h healthResponse
		get(t, "/healthz", http.StatusOK, &h)
		if h.Status != "ok" || h.K != k || h.Distinct != uint64(db.Len()) || h.ShardCount != 1 {
			t.Fatalf("healthz: %+v", h)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		var m Metrics
		get(t, "/metrics?format=json", http.StatusOK, &m)
		if m.K != k || m.DistinctKmers != uint64(db.Len()) {
			t.Fatalf("metrics shape: %+v", m)
		}
		if m.Requests == 0 || m.Rejected != 0 {
			t.Fatalf("metrics counters: requests=%d rejected=%d", m.Requests, m.Rejected)
		}
	})

	t.Run("metrics prometheus", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		body := buf.String()
		for _, want := range []string{
			"# TYPE kserve_requests_total counter",
			"# TYPE kserve_rejected_total counter",
			"# TYPE kserve_inflight gauge",
			"# TYPE kserve_distinct_kmers gauge",
			"kserve_rejected_total 0",
			"kserve_inflight 0",
			"kserve_draining 0",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("prometheus exposition missing %q:\n%s", want, body)
			}
		}
		// Every non-comment line is "name{labels} value" with a parseable
		// float value — the shape Prometheus scrapers require.
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("malformed exposition line %q", line)
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Fatalf("bad value in line %q: %v", line, err)
			}
		}
	})

	t.Run("draining", func(t *testing.T) {
		svc.Close()
		get(t, "/healthz", http.StatusServiceUnavailable, nil)
		seq := dna.Kmer(db.Entries[0].Key).String(&dna.Random, k)
		get(t, "/kmer/"+seq, http.StatusServiceUnavailable, nil)
	})
}

func TestLookupContextCanceled(t *testing.T) {
	db := sampleDB(t, 17, 200, 8, 0)
	svc := newService(t, db, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.LookupKey(ctx, db.Entries[0].Key); err != context.Canceled {
		t.Fatalf("canceled lookup: %v, want context.Canceled", err)
	}
	out := make([]uint32, 2)
	if err := svc.LookupKeysInto(ctx, []uint64{db.Entries[0].Key, db.Entries[1].Key}, out); err != context.Canceled {
		t.Fatalf("canceled batch: %v, want context.Canceled", err)
	}
}

func TestLoadDatabases(t *testing.T) {
	dir := t.TempDir()
	a := sampleDB(t, 17, 300, 9, 0)
	b := sampleDB(t, 17, 300, 10, 0)
	write := func(name string, d *kcount.Database) string {
		path := dir + "/" + name
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := writeFile(path, buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pa, pb := write("a.kcd", a), write("b.kcd", b)

	merged, err := LoadDatabases([]string{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	want, err := kcount.Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != want.Len() {
		t.Fatalf("merged %d entries, want %d", merged.Len(), want.Len())
	}
	for _, e := range want.Entries {
		if merged.Get(e.Key) != e.Count {
			t.Fatalf("merged count for %#x = %d, want %d", e.Key, merged.Get(e.Key), e.Count)
		}
	}
	if _, err := LoadDatabases(nil); err == nil {
		t.Fatal("empty path list accepted")
	}
	if _, err := LoadDatabases([]string{dir + "/missing.kcd"}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestBeginDrainHandoff pins the drain/handoff contract the cluster router
// relies on: after BeginDrain, /healthz answers 503 with Retry-After (so a
// router can tell an orderly drain from a crash) while lookups keep being
// served until Close.
func TestBeginDrainHandoff(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 500, 21, 0)
	svc := newService(t, db, Options{ReplicaID: "r0"})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.ReplicaID != "r0" || h.ShardCount != 1 || h.Status != "ok" {
		t.Fatalf("healthz before drain: %+v", h)
	}

	svc.BeginDrain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz missing Retry-After")
	}
	// The handoff window: lookups still succeed after BeginDrain.
	seq := dna.Kmer(db.Entries[0].Key).String(&dna.Random, k)
	resp, err = http.Get(ts.URL + "/kmer/" + seq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup during drain window: %d, want 200", resp.StatusCode)
	}

	svc.Close()
	resp, err = http.Get(ts.URL + "/kmer/" + seq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lookup after close: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("closed lookup missing Retry-After")
	}
}

// TestFilterShard pins the cluster sharding helper: shards are disjoint,
// cover the database, and agree with kernels.DestOf.
func TestFilterShard(t *testing.T) {
	db := sampleDB(t, 17, 2_000, 22, 0)
	const n = 3
	total := 0
	for idx := 0; idx < n; idx++ {
		part, err := FilterShard(db, idx, n)
		if err != nil {
			t.Fatal(err)
		}
		if part.K != db.K || part.Flags != db.Flags {
			t.Fatalf("shard %d lost metadata: %+v", idx, part)
		}
		if cap(part.Entries) != len(part.Entries) {
			t.Fatalf("shard %d holds %d entries in capacity %d: not allocated once", idx, len(part.Entries), cap(part.Entries))
		}
		for _, e := range part.Entries {
			if kernels.DestOf(e.Key, n) != idx {
				t.Fatalf("shard %d holds foreign key %#x", idx, e.Key)
			}
			if got := db.Get(e.Key); got != e.Count {
				t.Fatalf("shard %d key %#x count %d, want %d", idx, e.Key, e.Count, got)
			}
		}
		total += part.Len()
	}
	if total != db.Len() {
		t.Fatalf("shards cover %d entries, want %d", total, db.Len())
	}
	if same, err := FilterShard(db, 0, 1); err != nil || same != db {
		t.Fatalf("FilterShard(db, 0, 1) = (%p, %v), want identity", same, err)
	}
	if _, err := FilterShard(db, 2, 2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestBatchAllocRegression pins the batch path at zero allocations: a
// 256-key LookupKeysInto is one admission and 256 binary searches into the
// caller's slice, nothing else.
func TestBatchAllocRegression(t *testing.T) {
	db := sampleDB(t, 17, 50_000, 23, 0)
	svc := newService(t, db, Options{})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = db.Entries[rng.Intn(len(db.Entries))].Key
	}
	out := make([]uint32, len(keys))
	avg := testing.AllocsPerRun(200, func() {
		if err := svc.LookupKeysInto(ctx, keys, out); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("LookupKeysInto allocates %.1f/op for 256 keys, want 0", avg)
	}
	for i, key := range keys {
		if want := db.Get(key); out[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want)
		}
	}
}

// TestLookupAllocRegression pins the point lookup at zero allocations, with
// tracing plumbed in but sampling off — so span plumbing can never silently
// tax untraced traffic.
func TestLookupAllocRegression(t *testing.T) {
	db := sampleDB(t, 17, 50_000, 29, 0)
	tracer := obs.NewTracer("kserve-test", 0) // wired but never sampling
	svc := newService(t, db, Options{Tracer: tracer})
	ctx := context.Background()
	key := db.Entries[1234].Key
	avg := testing.AllocsPerRun(200, func() {
		if _, err := svc.LookupKey(ctx, key); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("LookupKey allocates %.2f/op with sampling off, want 0", avg)
	}
	if tracer.Len() != 0 {
		t.Fatalf("never-sampling tracer recorded %d spans", tracer.Len())
	}
}

// TestHandlerTracing drives sampled requests through the HTTP surface and
// asserts the replica records one server span per request, continued from
// the incoming traceparent (the caller's trace ID, parented to the caller's
// span) — and nothing else: the lookup under it has no stage to attribute.
// /debug/trace exposes the same dump.
func TestHandlerTracing(t *testing.T) {
	db := sampleDB(t, 17, 5_000, 31, 0)
	tracer := obs.NewTracer("replica-test", 1)
	svc := newService(t, db, Options{Tracer: tracer})
	h := NewHandler(svc)

	client := obs.NewTracer("client", 1)
	root := client.StartRoot("request", "load")
	seq := dna.Kmer(db.Entries[7].Key).String(&dna.Random, 17)
	req := httptest.NewRequest("GET", "/kmer/"+seq, nil)
	req.Header.Set(obs.TraceparentHeader, root.Context().Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced lookup: status %d: %s", rec.Code, rec.Body)
	}
	body, _ := json.Marshal(batchRequest{Kmers: []string{seq, seq, seq}})
	breq := httptest.NewRequest("POST", "/batch", bytes.NewReader(body))
	breq.Header.Set(obs.TraceparentHeader, root.Context().Traceparent())
	brec := httptest.NewRecorder()
	h.ServeHTTP(brec, breq)
	root.End()
	if brec.Code != http.StatusOK {
		t.Fatalf("traced batch: status %d: %s", brec.Code, brec.Body)
	}

	spans := tracer.Snapshot()
	if len(spans) != 2 || spans[0].Name != "kserve_lookup" || spans[1].Name != "kserve_batch" {
		t.Fatalf("recorded spans %+v, want exactly kserve_lookup and kserve_batch", spans)
	}
	want := client.Snapshot()[0]
	for _, sp := range spans {
		if sp.Trace != want.Trace || sp.Parent != want.Span {
			t.Fatalf("%q span on trace %s parent %s, want caller trace %s span %s", sp.Name, sp.Trace, sp.Parent, want.Trace, want.Span)
		}
	}
	if got := spans[1].Attrs["batch_size"]; got != "3" {
		t.Fatalf("kserve_batch batch_size = %q, want 3", got)
	}

	// An unsampled traceparent must be respected: no new spans recorded.
	before := tracer.Len()
	req2 := httptest.NewRequest("GET", "/kmer/"+seq, nil)
	sc := root.Context()
	sc.Sampled = false
	req2.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("unsampled lookup: status %d", rec2.Code)
	}
	if tracer.Len() != before {
		t.Fatalf("unsampled request grew the span buffer: %d → %d", before, tracer.Len())
	}

	// /debug/trace serves the same dump, named for the process.
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec3.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", rec3.Code)
	}
	dump, err := obs.ReadTraceDump(rec3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Process != "replica-test" || len(dump.Spans) != len(spans) {
		t.Fatalf("/debug/trace dump = %q/%d spans, want replica-test/%d", dump.Process, len(dump.Spans), len(spans))
	}
}

// TestHalfRequestLineIsClosed pins the header-read deadline of the server
// ServeUntilInterrupt runs: a connection that sends half a request line and
// then stalls — invisible to admission control, which only sees parsed
// requests — is closed by the server within readHeaderTimeout instead of
// holding a goroutine forever.
func TestHalfRequestLineIsClosed(t *testing.T) {
	t.Parallel()
	svc := newService(t, sampleDB(t, 17, 100, 33, 0), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(svc)
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /kmer/ACGT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 3*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open past %s: %v", readHeaderTimeout, err)
	}
}
