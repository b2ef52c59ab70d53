package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dedukt/internal/kcount"
	"dedukt/internal/obs"
)

func TestQuantileSelection(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5} // sorted: 1 3 5 7 9
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	s := summarize(xs)
	if s.N != 5 || s.Median != 5 || s.Q1 != 3 || s.Q3 != 7 {
		t.Errorf("summarize = %+v, want n=5 median=5 quartiles 3-7", s)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want their mean 3", got)
	}
	sorted := sortedCopy(xs)
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {1, 9}, {0.125, 2}, {0.99, 8.92}} {
		if got := quantile(sorted, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if xs[0] != 9 {
		t.Error("summaries must not reorder the caller's samples")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}, {5_000_000, 99.99}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, lower); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100 -> 110 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 90, higher); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 120, higher); got >= 0 {
		t.Errorf("throughput 100 -> 120 is an improvement, got worsening %v", got)
	}
}

func testDatabase(n int) *kcount.Database {
	db := &kcount.Database{K: kmerLen}
	for i := 0; i < n; i++ {
		db.Entries = append(db.Entries, kcount.KV{Key: uint64(i)*977 + 13, Count: uint32(i%7 + 1)})
	}
	return db
}

func TestKeySamplerUniform(t *testing.T) {
	db := testDatabase(1000)
	s := newKeySampler(7, db, 0, 0.10)
	const draws = 50_000
	absent, seen := 0, map[uint64]int{}
	for i := 0; i < draws; i++ {
		key, want := s.next()
		if got := db.Get(key); got != want {
			t.Fatalf("draw %d: sampler says %#x holds %d, database says %d", i, key, want, got)
		}
		if want == 0 {
			absent++
			continue
		}
		seen[key]++
	}
	if share := float64(absent) / draws; math.Abs(share-0.10) > 0.01 {
		t.Errorf("absent share %.3f, want 0.10 +- 0.01", share)
	}
	if len(seen) != db.Len() {
		t.Errorf("uniform draws touched %d of %d present keys", len(seen), db.Len())
	}
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if mean := float64(draws-absent) / float64(db.Len()); float64(max) > 2*mean {
		t.Errorf("hottest key drawn %d times against a mean of %.0f: not uniform", max, mean)
	}
}

func TestKeySamplerZipf(t *testing.T) {
	db := testDatabase(5000)
	s := newKeySampler(7, db, zipfExponent, 0)
	const draws = 50_000
	seen := map[uint64]int{}
	for i := 0; i < draws; i++ {
		key, want := s.next()
		if want == 0 || db.Get(key) != want {
			t.Fatalf("draw %d: Zipf draws must be present keys with their counts; got %#x -> %d", i, key, want)
		}
		seen[key]++
	}
	// Rank 0 maps to index 0; with s=1.1 over 5000 keys it takes ~14% of draws.
	if hot := seen[db.Entries[0].Key]; hot < draws/10 {
		t.Errorf("rank-0 key drawn %d of %d times, want the Zipf head (>10%%)", hot, draws)
	}
	// The scatter is a bijection: ranks 0 and 1 are different, distant keys.
	if a, b := uint64(0)*zipfScatter%5000, uint64(1)*zipfScatter%5000; a == b || b == a+1 {
		t.Errorf("ranks 0 and 1 map to neighbouring indexes %d and %d", a, b)
	}
	idx := map[uint64]bool{}
	for rank := uint64(0); rank < 5000; rank++ {
		idx[rank*zipfScatter%5000] = true
	}
	if len(idx) != 5000 {
		t.Errorf("rank scatter hits %d of 5000 indexes: not a bijection", len(idx))
	}
}

func TestKeySamplerRepeatsForASeed(t *testing.T) {
	db := testDatabase(300)
	a, b, c := newKeySampler(3, db, 0, 0.1), newKeySampler(3, db, 0, 0.1), newKeySampler(4, db, 0, 0.1)
	same := true
	for i := 0; i < 100; i++ {
		ka, _ := a.next()
		kb, _ := b.next()
		kc, _ := c.next()
		if ka != kb {
			t.Fatalf("draw %d differs between two samplers of one seed", i)
		}
		same = same && ka == kc
	}
	if same {
		t.Error("another seed drew the same hundred keys")
	}
}

func TestRegistryIsValid(t *testing.T) {
	if err := validateRegistry(workloads, endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if m.Moves == "" || m.Help == "" {
			t.Errorf("per-layer metric %s must say how it is measured and what it should move", m.Name)
		}
	}
	known := map[string]bool{}
	for _, p := range probes {
		known[p.layer] = true
	}
	for _, w := range workloads {
		for _, l := range w.Layers {
			if !known[l] {
				t.Errorf("workload %s names layer %q, which no probe belongs to", w.Name, l)
			}
		}
	}
}

func TestRegistryLimits(t *testing.T) {
	series := func(prefix string, n int) []metricSpec {
		ms := make([]metricSpec, n)
		for i := range ms {
			ms[i] = metricSpec{Name: fmt.Sprintf("%s%d", prefix, i), Unit: "s", Better: lower, Bound: 0.1}
		}
		return ms
	}
	many := func(n int) []metricSpec { return series("m", n) }
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.2}
	ok := []metricSpec{setup}
	layers := series("layer", 1)
	two := workloads[:2]
	with := func(m metricSpec) []metricSpec { return []metricSpec{setup, m} }
	for name, tc := range map[string]struct {
		ws     []workloadSpec
		e2e, l []metricSpec
	}{
		"one workload":          {workloads[:1], ok, layers},
		"nine workloads":        {append(append([]workloadSpec{}, workloads...), workloadSpec{Name: "w7", Why: "x"}, workloadSpec{Name: "w8", Why: "x"}, workloadSpec{Name: "w9", Why: "x"}), ok, layers},
		"seventeen end-to-end":  {two, append(many(16), setup), layers},
		"129 per-layer":         {two, ok, series("layer", 129)},
		"no per-layer":          {two, ok, nil},
		"name with a space":     {two, with(metricSpec{Name: "bad name", Unit: "s", Better: lower, Bound: 0.1}), layers},
		"name starting with .":  {two, with(metricSpec{Name: ".x", Unit: "s", Better: lower, Bound: 0.1}), layers},
		"name of 65 characters": {two, with(metricSpec{Name: strings.Repeat("n", 65), Unit: "s", Better: lower, Bound: 0.1}), layers},
		"name used twice":       {two, with(metricSpec{Name: "layer0", Unit: "s", Better: lower, Bound: 0.1}), layers},
		"unit with a space":     {two, with(metricSpec{Name: "x", Unit: "per s", Better: lower, Bound: 0.1}), layers},
		"no direction":          {two, with(metricSpec{Name: "x", Unit: "s", Bound: 0.1}), layers},
		"bound above a quarter": {two, with(metricSpec{Name: "x", Unit: "s", Better: lower, Bound: 0.3}), layers},
		"bound above setup_s's": {two, with(metricSpec{Name: "x", Unit: "s", Better: lower, Bound: 0.25}), layers},
		"no setup_s":            {two, many(2), layers},
		"workload without why":  {[]workloadSpec{{Name: "a"}, {Name: "b", Why: "x"}}, ok, layers},
	} {
		if err := validateRegistry(tc.ws, tc.e2e, tc.l); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateRegistry(two, append(many(15), setup), series("layer", 128)); err != nil {
		t.Errorf("16 end-to-end and 128 per-layer metrics are inside the limits: %v", err)
	}
}

// BENCHMARK.json is generated (go run . -write-manifest ../BENCHMARK.json);
// the committed file must be what the registry renders.
func TestManifestMatchesRegistry(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -write-manifest ../BENCHMARK.json`")
	}
	var doc map[string]any
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 || len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes, want exactly 6 keys within 64 KiB", len(doc), len(got))
	}
}

func TestWallSharesSumToOne(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []obs.Span{
		// rank 0: parse 10-30, an overlapped exchange 30-90 that stays open
		// while the next round parses 40-60, count 90-100.
		{Rank: 0, Phase: obs.PhaseParse, Start: ms(10), Dur: ms(20)},
		{Rank: 0, Phase: obs.PhaseExchange, Start: ms(30), Dur: ms(60)},
		{Rank: 0, Phase: obs.PhaseParse, Start: ms(40), Dur: ms(20)},
		{Rank: 0, Phase: obs.PhaseGather, Start: ms(70), Dur: ms(10)},
		{Rank: 0, Phase: obs.PhaseCount, Start: ms(90), Dur: ms(10)},
		// rank 1: one checkpoint span, which no row names.
		{Rank: 1, Phase: obs.PhaseCkpt, Start: ms(0), Dur: ms(50)},
	}
	shares := wallShares(spans, 2, 0.1)
	want := map[string]float64{
		obs.PhaseParse: 0.20, obs.PhaseExchange: 0.20, obs.PhaseCount: 0.05,
		obs.PhaseStageH2D: 0, obs.PhaseSpill: 0, obs.PhaseBinCount: 0, "other": 0.55,
	}
	var sum float64
	for phase, w := range want {
		if got := shares[phase]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s share = %v, want %v", phase, got, w)
		}
		sum += shares[phase]
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want the seven rows summing to 1", shares, sum)
	}
}

func TestCompareRunsFlagsUnresolved(t *testing.T) {
	mk := func(rss, imbalance float64) suiteRun {
		run := suiteRun{EndToEnd: map[string]result{}, exact: map[string]map[string]float64{}}
		for _, w := range workloads {
			r := result{Metrics: map[string]metricValue{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = metricValue{Value: 1}
			}
			r.Metrics["peak_rss_mb"] = metricValue{Value: rss}
			run.EndToEnd[w.Name] = r
			run.exact[w.Name] = map[string]float64{"pipeline.load_imbalance": imbalance}
		}
		return run
	}
	if got := compareRuns(mk(10, 1.05), mk(10.5, 1.05)); len(got) != 0 {
		t.Errorf("a 5%% wobble inside the bound is resolved, got %v", got)
	}
	if got := compareRuns(mk(10, 1.05), mk(20, 1.05)); len(got) != len(workloads) {
		t.Errorf("doubled peak RSS must be unresolved on every workload, got %v", got)
	}
	if got := compareRuns(mk(10, 1.05), mk(10, 1.0500001)); len(got) != len(workloads) {
		t.Errorf("an exact count that moved at all must be reported, got %v", got)
	}
}

func TestKeyFileRoundTrip(t *testing.T) {
	db := testDatabase(500)
	path := filepath.Join(t.TempDir(), "keys.bin")
	if err := writeKeys(path, newKeySampler(9, db, 0, 0.1), 200); err != nil {
		t.Fatal(err)
	}
	draw, n, err := readKeys(path)
	if err != nil || n != 200 {
		t.Fatalf("readKeys: %d records, %v; want 200", n, err)
	}
	s := newKeySampler(9, db, 0, 0.1)
	var first uint64
	for i := 0; i < n; i++ {
		key, want := draw()
		if k2, w2 := s.next(); key != k2 || want != w2 {
			t.Fatalf("record %d reads (%#x, %d), the sampler drew (%#x, %d)", i, key, want, k2, w2)
		}
		if i == 0 {
			first = key
		}
	}
	if key, _ := draw(); key != first {
		t.Error("the draws must wrap around at the end of the file")
	}
	if err := os.WriteFile(path, make([]byte, keyRecord+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readKeys(path); err == nil {
		t.Error("a file that is not a whole number of records must be refused")
	}
}

// TestQuickSuite drives every workload through set-up, the manifest, the
// child's load, the timed phase, the oracle or database check, the traced
// repetitions and the layer probes on tiny inputs: the whole benchmark, too
// small to measure anything. The child's part runs in this process.
func TestQuickSuite(t *testing.T) {
	start := time.Now()
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			opt := options{seed: 5, seconds: 0.5, quick: true, trace: trace, outDir: t.TempDir()}
			out, err := runWorkload(spec, opt, runChild)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", spec.Name, trace, out.failed, out.attempted, out.firstErr)
			}
			if left, _ := filepath.Glob(filepath.Join(opt.outDir, "w*-*")); len(left) > 0 {
				t.Errorf("%s: working directories left behind: %v", spec.Name, left)
			}
			m, err := readManifest(filepath.Join(opt.outDir, spec.Name+".manifest.json"))
			if err != nil || m.Environment.Seed != 5 || m.Bases == 0 {
				t.Errorf("%s: manifest %+v, %v", spec.Name, m, err)
			}
			res, err := resultOf(out, trace)
			if err != nil {
				t.Errorf("%s trace=%v: %v", spec.Name, trace, err)
				continue
			}
			if !trace {
				for _, m := range endToEnd {
					if v := res.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
						t.Errorf("%s: end-to-end %s = %v %q, want a positive value in %s", spec.Name, m.Name, v.Value, v.Unit, m.Unit)
					}
				}
				continue
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%s: traced run reports %d metrics, want all %d", spec.Name, len(res.Metrics), len(perLayer))
			}
			checkTrace(t, spec, opt.outDir)
			if spec.Kind != counting {
				continue
			}
			var sum float64
			for _, phase := range []string{"parse", "stage_h2d", "exchange", "count", "spill_write", "bin_count", "other"} {
				sum += out.metrics["pipeline."+phase+"_wall_share"]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: wall shares sum to %v, want 1", spec.Name, sum)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("-quick took %v, want under 10 s so tier-1 stays fast", d)
	}
}

// checkTrace loads the workload's Chrome trace and looks for the
// benchmark's own spans and, for a counting workload, the pipeline's.
func checkTrace(t *testing.T, spec workloadSpec, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, spec.Name+".trace.json"))
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("%s: trace does not load: %v", spec.Name, err)
		return
	}
	bench, pipeline := 0, 0
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Pid == 1:
			bench++
			if e.Args["workload"] != spec.Name || e.Dur == nil {
				t.Errorf("%s: span %q lacks its workload id or duration", spec.Name, e.Name)
			}
		case e.Ph == "X":
			pipeline++
		}
	}
	if bench < 3 || (spec.Kind == counting && pipeline == 0) {
		t.Errorf("%s: trace holds %d benchmark spans and %d pipeline spans", spec.Name, bench, pipeline)
	}
	if _, err := os.Stat(filepath.Join(dir, spec.Name+".layers.txt")); err != nil {
		t.Error(err)
	}
}
