package kcluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kserve"
	"dedukt/internal/obs"
)

// sampleDB builds a deterministic database of n-ish distinct k-mers
// (mirrors the kserve test fixture).
func sampleDB(t testing.TB, k, n int, seed int64) *kcount.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := kcount.NewTable(n, kcount.Linear)
	mask := uint64(dna.KmerMask(k))
	for i := 0; i < n*3; i++ {
		tab.Inc(rng.Uint64() % (mask + 1))
	}
	return kcount.FromTable(tab, k, 0)
}

// testReplica is one real kserve process-equivalent: a Service behind an
// http.Server on a loopback port, holding one cluster shard of db.
type testReplica struct {
	t      testing.TB
	db     *kcount.Database
	idx    int
	of     int
	slow   time.Duration
	tracer *obs.Tracer

	svc  *kserve.Service
	srv  *http.Server
	addr string
}

// start brings the replica up; addr "" picks a free port, a previous addr
// restarts it in place (rebalance tests).
func (r *testReplica) start(addr string) {
	r.t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	sub, err := kserve.FilterShard(r.db, r.idx, r.of)
	if err != nil {
		r.t.Fatal(err)
	}
	svc, err := kserve.New(sub, kserve.Options{
		ReplicaID:  fmt.Sprintf("rep-%d-%s", r.idx, addr),
		ShardIndex: r.idx,
		ShardCount: r.of,
		Slow:       r.slow,
		Tracer:     r.tracer,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond) // port may linger after a restart
	}
	r.svc = svc
	r.addr = ln.Addr().String()
	r.srv = &http.Server{Handler: kserve.NewHandler(svc)}
	go r.srv.Serve(ln)
	r.t.Cleanup(r.stop)
}

func (r *testReplica) stop() {
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
		r.svc.Close()
	}
}

// startCluster starts replicasPer replicas for each of shardCount shards.
// reps[shard*replicasPer+j] is replica j of that shard.
func startCluster(t testing.TB, db *kcount.Database, shardCount, replicasPer int) ([]*testReplica, []string) {
	t.Helper()
	var reps []*testReplica
	var seeds []string
	for s := 0; s < shardCount; s++ {
		for j := 0; j < replicasPer; j++ {
			r := &testReplica{t: t, db: db, idx: s, of: shardCount}
			r.start("")
			reps = append(reps, r)
			seeds = append(seeds, r.addr)
		}
	}
	return reps, seeds
}

// newTestRegistry builds a registry probed only via ProbeNow (the
// background interval is an hour), so tests control state transitions.
func newTestRegistry(t testing.TB, seeds []string) *Registry {
	t.Helper()
	reg, err := NewRegistry(RegistryOptions{Seeds: seeds, ProbeInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	reg.ProbeNow()
	return reg
}

// TestReadyAfterProbeNow: once ProbeNow returns over live replicas the
// cluster is ready, even when the probe loop's first pass is still running
// beside it — a pass that found nothing new to rebuild must not return
// before the one that did has published its view.
func TestReadyAfterProbeNow(t *testing.T) {
	_, seeds := startCluster(t, sampleDB(t, 15, 200, 3), 1, 2)
	for i := 0; i < 20; i++ {
		reg, err := NewRegistry(RegistryOptions{Seeds: seeds, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		reg.ProbeNow()
		ready := reg.Ready()
		reg.Close()
		if !ready {
			t.Fatalf("registry %d not ready after ProbeNow: %+v", i, reg.Snapshot())
		}
	}
}

func seqOf(key uint64, k int) string { return dna.Kmer(key).String(&dna.Random, k) }

// candidatesOf is the candidate order the next request to shard would get.
func candidatesOf(reg *Registry, shard int) []*Replica {
	return reg.view.Load().table[shard].candidates()
}

func TestRouterRoutesAndMatches(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 2000, 1)
	_, seeds := startCluster(t, db, 2, 2)
	reg := newTestRegistry(t, seeds)
	if !reg.Ready() {
		t.Fatalf("cluster not ready after probe: %+v", reg.Snapshot())
	}
	gotK, canonical, shards, ready := reg.Shape()
	if !ready || gotK != k || canonical || shards != 2 {
		t.Fatalf("Shape() = %d %v %d %v", gotK, canonical, shards, ready)
	}
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()

	for _, e := range db.Entries[:200] {
		res, err := rt.Lookup(ctx, seqOf(e.Key, k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != e.Count || !res.Present {
			t.Fatalf("Lookup(%#x) = %+v, want count %d", e.Key, res, e.Count)
		}
	}
	// Absent key answers present=false, not an error.
	var absent uint64
	for db.Get(absent) != 0 {
		absent++
	}
	if res, err := rt.Lookup(ctx, seqOf(absent, k)); err != nil || res.Present {
		t.Fatalf("absent lookup = %+v, %v", res, err)
	}
	// Malformed k-mer is the client's fault.
	if _, err := rt.Lookup(ctx, "NOPE"); err == nil {
		t.Fatal("bad k-mer accepted")
	}

	// Batch crosses both shards and matches the database.
	kmers := make([]string, 0, 300)
	for _, e := range db.Entries[:300] {
		kmers = append(kmers, seqOf(e.Key, k))
	}
	resp, err := rt.Batch(ctx, kmers)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Complete || resp.Errors != 0 {
		t.Fatalf("batch degraded: complete=%v errors=%d", resp.Complete, resp.Errors)
	}
	for i, e := range db.Entries[:300] {
		if resp.Results[i].Count != e.Count {
			t.Fatalf("batch[%d] = %+v, want count %d", i, resp.Results[i], e.Count)
		}
	}
}

func TestHedgeFiresAndWins(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1500, 2)
	fast := &testReplica{t: t, db: db, idx: 0, of: 1}
	fast.start("")
	slow := &testReplica{t: t, db: db, idx: 0, of: 1, slow: 60 * time.Millisecond}
	slow.start("")
	reg := newTestRegistry(t, []string{fast.addr, slow.addr})
	rt := NewRouter(reg, RouterOptions{HedgeMax: 5 * time.Millisecond})
	ctx := context.Background()

	start := time.Now()
	for _, e := range db.Entries[:80] {
		res, err := rt.Lookup(ctx, seqOf(e.Key, k))
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != e.Count {
			t.Fatalf("Lookup(%#x) = %d, want %d", e.Key, res.Count, e.Count)
		}
	}
	elapsed := time.Since(start)
	if rt.met.hedges.Value() == 0 {
		t.Fatal("no hedges fired against a 60ms straggler with a 5ms hedge deadline")
	}
	if rt.met.hedgeWins.Value() == 0 {
		t.Fatal("no hedge ever won the race")
	}
	// The straggler is primary for half the lookups; without hedging those
	// 40 lookups alone would take ≥ 2.4s.
	if elapsed > 2*time.Second {
		t.Fatalf("80 hedged lookups took %v", elapsed)
	}
}

func TestReplicaFailureRetriesAndGoesDown(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1500, 3)
	reps, seeds := startCluster(t, db, 1, 2)
	reg := newTestRegistry(t, seeds)
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()

	before := reg.Rebalances()
	reps[1].stop() // hard kill, no drain
	for _, e := range db.Entries[:100] {
		res, err := rt.Lookup(ctx, seqOf(e.Key, k))
		if err != nil {
			t.Fatalf("lookup with a dead replica: %v", err)
		}
		if res.Count != e.Count {
			t.Fatalf("Lookup(%#x) = %d, want %d", e.Key, res.Count, e.Count)
		}
	}
	if rt.met.retries.Value() == 0 {
		t.Fatal("no retries recorded while a replica was dead")
	}
	// Request failures alone (no probe tick) must take the replica down.
	if got := findReplica(reg, reps[1].addr).State(); got != StateDown {
		t.Fatalf("dead replica state = %v, want down", got)
	}
	if reg.Rebalances() == before {
		t.Fatal("view not rebuilt after replica death")
	}
	// Down replica is no longer a candidate.
	for i := 0; i < 4; i++ {
		for _, c := range candidatesOf(reg, 0) {
			if c.Addr == reps[1].addr {
				t.Fatal("down replica still a candidate")
			}
		}
	}
}

func TestAllReplicasDownPartialBatch(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1500, 4)
	reps, seeds := startCluster(t, db, 2, 1)
	reg := newTestRegistry(t, seeds)
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()

	reps[1].stop() // shard 1 loses its only replica
	reg.ProbeNow()
	reg.ProbeNow() // second strike crosses FailThreshold
	if reg.Ready() {
		t.Fatal("registry still ready with shard 1 empty")
	}

	var kmers []string
	var wantErr []bool
	for _, e := range db.Entries[:200] {
		kmers = append(kmers, seqOf(e.Key, k))
		wantErr = append(wantErr, kernels.DestOf(e.Key, 2) == 1)
	}
	resp, err := rt.Batch(ctx, kmers)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Complete {
		t.Fatal("batch claims complete with a shard down")
	}
	if resp.Errors == 0 || resp.Errors == len(kmers) {
		t.Fatalf("errors = %d of %d, want partial", resp.Errors, len(kmers))
	}
	for i := range kmers {
		if wantErr[i] && resp.Results[i].Error == "" {
			t.Fatalf("shard-1 key %q answered without its shard", kmers[i])
		}
		if !wantErr[i] && resp.Results[i].Error != "" {
			t.Fatalf("shard-0 key %q degraded: %s", kmers[i], resp.Results[i].Error)
		}
	}
	if rt.met.partialBatches.Value() == 0 {
		t.Fatal("partial batch not counted")
	}
}

func TestRebalanceOnReturn(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1000, 5)
	reps, seeds := startCluster(t, db, 1, 2)
	reg := newTestRegistry(t, seeds)

	addr := reps[1].addr
	reps[1].stop()
	reg.ProbeNow()
	reg.ProbeNow()
	if got := findReplica(reg, addr).State(); got != StateDown {
		t.Fatalf("state after kill = %v, want down", got)
	}
	afterDown := reg.Rebalances()

	// Same shard, same address: the replica comes back.
	back := &testReplica{t: t, db: db, idx: 0, of: 1}
	back.start(addr)
	reg.ProbeNow()
	if got := findReplica(reg, addr).State(); got != StateUp {
		t.Fatalf("state after return = %v, want up", got)
	}
	if reg.Rebalances() == afterDown {
		t.Fatal("view not rebuilt when the replica returned")
	}
	found := false
	for _, c := range candidatesOf(reg, 0) {
		if c.Addr == addr {
			found = true
		}
	}
	if !found {
		t.Fatal("returned replica not routable again")
	}
}

func TestDrainShiftsTraffic(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1000, 6)
	reps, seeds := startCluster(t, db, 1, 2)
	reg := newTestRegistry(t, seeds)
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()

	reps[1].svc.BeginDrain()
	reg.ProbeNow()
	drained := findReplica(reg, reps[1].addr)
	if got := drained.State(); got != StateDraining {
		t.Fatalf("state after BeginDrain = %v, want draining", got)
	}
	// The draining replica is still routable — but never the primary.
	for _, e := range db.Entries[:100] {
		cands := candidatesOf(reg, 0)
		if len(cands) != 2 {
			t.Fatalf("want both replicas routable, got %d", len(cands))
		}
		if cands[0] == drained {
			t.Fatal("draining replica still primary")
		}
		res, err := rt.Lookup(ctx, seqOf(e.Key, k))
		if err != nil || res.Count != e.Count {
			t.Fatalf("lookup during drain = %+v, %v", res, err)
		}
	}
}

func TestLoadgenAgainstCluster(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 2000, 7)
	_, seeds := startCluster(t, db, 2, 2)
	reg := newTestRegistry(t, seeds)
	rt := NewRouter(reg, RouterOptions{})
	srv := &http.Server{Handler: NewHandler(rt)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	sum, err := RunLoad(context.Background(), LoadOptions{
		Target:      "http://" + ln.Addr().String(),
		DB:          db,
		Requests:    150,
		Warmup:      20,
		Batch:       16,
		Concurrency: 4,
		Keys:        4096,
		Dist:        "zipf",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 150 || sum.Lookups != 150*16 {
		t.Fatalf("summary counts = %+v", sum)
	}
	if sum.Errors != 0 || sum.KeyErrors != 0 {
		t.Fatalf("load run saw errors: %+v", sum)
	}
	if sum.Present != sum.Lookups {
		t.Fatalf("%d of %d lookups found a k-mer the cluster serves", sum.Present, sum.Lookups)
	}
	if sum.Latency.P50 <= 0 || sum.Latency.P999 < sum.Latency.P50 {
		t.Fatalf("implausible latency digest: %+v", sum.Latency)
	}

	// Open-loop mode measures from the scheduled arrival.
	open, err := RunLoad(context.Background(), LoadOptions{
		Target:      "http://" + ln.Addr().String(),
		DB:          db,
		Requests:    100,
		Batch:       1,
		Concurrency: 4,
		QPS:         2000,
		Keys:        1024,
		Dist:        "uniform",
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.Errors != 0 || open.Present != open.Lookups {
		t.Fatalf("open-loop run saw errors or misses: %+v", open)
	}
	if open.WallSec < 0.04 {
		t.Fatalf("open loop finished in %.3fs, faster than the offered rate allows", open.WallSec)
	}
}

func findReplica(reg *Registry, addr string) *Replica {
	for _, rep := range reg.replicas {
		if rep.Addr == addr {
			return rep
		}
	}
	return nil
}

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("5ms:p99")
	if err != nil {
		t.Fatal(err)
	}
	if slo.Target != 5*time.Millisecond || slo.Quantile != 0.99 {
		t.Fatalf("ParseSLO(5ms:p99) = %+v", slo)
	}
	if got := slo.String(); got != "5ms:p99" {
		t.Fatalf("String() = %q, want 5ms:p99", got)
	}
	if slo, err = ParseSLO("250us:p99.9"); err != nil || math.Abs(slo.Quantile-0.999) > 1e-9 {
		t.Fatalf("ParseSLO(250us:p99.9) = %+v, %v", slo, err)
	}
	for _, bad := range []string{"", "5ms", "p99", "5ms:99", "5ms:p0", "5ms:p100", "-5ms:p99", "x:p99", "5ms:px"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Fatalf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestEvalSLO(t *testing.T) {
	slo := SLO{Target: time.Millisecond, Quantile: 0.9}
	// 100 latencies (µs): 95 fast, 5 over the 1000µs target → 5% violations
	// against a 10% budget: met, burn rate 0.5.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 100
	}
	for i := 0; i < 5; i++ {
		lat[i] = 5000
	}
	s := evalSLO(slo, lat)
	if !s.Met || s.Violations != 5 || s.ViolationRate != 0.05 {
		t.Fatalf("evalSLO = %+v, want met with 5 violations", s)
	}
	if math.Abs(s.ErrorBudget-0.1) > 1e-9 || math.Abs(s.BudgetBurnRate-0.5) > 1e-9 {
		t.Fatalf("budget accounting = %+v, want budget 0.1 burn 0.5", s)
	}
	// 20 violations blow the 10% budget: burn 2, not met.
	for i := 0; i < 20; i++ {
		lat[i] = 5000
	}
	if s := evalSLO(slo, lat); s.Met || math.Abs(s.BudgetBurnRate-2) > 1e-9 {
		t.Fatalf("evalSLO over budget = %+v, want burn 2, not met", s)
	}
	if s := evalSLO(slo, nil); !s.Met || s.Violations != 0 {
		t.Fatalf("evalSLO(empty) = %+v, want trivially met", s)
	}
}

// TestEndToEndTracing runs the full serving path — loadgen roots traces,
// the proxy continues them and spans every upstream attempt, both replicas
// record server and shard spans — against a deliberate straggler, then
// checks one trace ID stitches across all four processes and that a hedged
// attempt won at least one race. The same invariants cluster_smoke.sh
// asserts on the joined Chrome trace, here without processes.
func TestEndToEndTracing(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 1500, 7)
	fastTracer := obs.NewTracer("rep-fast", 1, 0)
	slowTracer := obs.NewTracer("rep-slow", 1, 0)
	fast := &testReplica{t: t, db: db, idx: 0, of: 1, tracer: fastTracer}
	fast.start("")
	slow := &testReplica{t: t, db: db, idx: 0, of: 1, slow: 50 * time.Millisecond, tracer: slowTracer}
	slow.start("")
	reg := newTestRegistry(t, []string{fast.addr, slow.addr})
	proxyTracer := obs.NewTracer("kproxy", 1, 0)
	rt := NewRouter(reg, RouterOptions{HedgeMax: 5 * time.Millisecond, Tracer: proxyTracer})
	srv := httptest.NewServer(NewHandler(rt))
	defer srv.Close()

	loadTracer := obs.NewTracer("kload", 1, 0)
	sum, err := RunLoad(context.Background(), LoadOptions{
		Target:      srv.URL,
		Requests:    60,
		Concurrency: 4,
		Keys:        256,
		DB:          db,
		Tracer:      loadTracer,
		SLO:         &SLO{Target: 2 * time.Second, Quantile: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 || sum.KeyErrors != 0 {
		t.Fatalf("load errors: %+v", sum)
	}
	if sum.SLO == nil || !sum.SLO.Met {
		t.Fatalf("generous 2s:p99 SLO not met: %+v", sum.SLO)
	}
	if sum.Build.GoVersion == "" {
		t.Fatal("summary missing build info")
	}

	dumps := []obs.TraceDump{loadTracer.Dump(), proxyTracer.Dump(), fastTracer.Dump(), slowTracer.Dump()}
	// Index: trace ID → set of processes that recorded a span on it.
	procs := make(map[string]map[string]bool)
	hedgedWinner := false
	for _, d := range dumps {
		for _, sp := range d.Spans {
			m := procs[sp.Trace]
			if m == nil {
				m = make(map[string]bool)
				procs[sp.Trace] = m
			}
			m[d.Process] = true
			if sp.Attrs["hedged"] == "true" && sp.Attrs["outcome"] == "winner" {
				hedgedWinner = true
			}
		}
	}
	if !hedgedWinner {
		t.Fatal("no upstream span marked hedged winner against a 50ms straggler")
	}
	full := 0
	for _, m := range procs {
		if m["kload"] && m["kproxy"] && m["rep-fast"] {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no trace spans kload+kproxy+replica; traces: %v", procs)
	}

	// The joined Chrome trace must load: every span lands under a process
	// group with metadata events.
	var joined bytes.Buffer
	if err := obs.JoinTraces(&joined, dumps); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(joined.Bytes(), &tf); err != nil {
		t.Fatalf("joined trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	want := 0
	for _, d := range dumps {
		want += len(d.Spans)
	}
	if spans != want {
		t.Fatalf("joined trace has %d X events, want %d (one per span)", spans, want)
	}
}
