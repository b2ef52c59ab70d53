package kcluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/obs"
)

// LoadOptions configures one load run against a kproxy (or a bare kserve
// replica — both speak GET /kmer and POST /batch).
type LoadOptions struct {
	// Target is the base URL, e.g. "http://127.0.0.1:9090".
	Target string
	// DB is the spectrum the target serves: the key population is drawn
	// from its entries, so every lookup is of a k-mer the cluster holds.
	DB *kcount.Database
	// Requests is the number of measured HTTP requests; Warmup requests
	// run first, untimed, to fill the proxy's hedge latency histogram.
	Requests int
	Warmup   int
	// Batch is the lookups per request: 1 sends GET /kmer/{seq}, larger
	// sends POST /batch (default 1).
	Batch int
	// Concurrency is the worker count (default 8).
	Concurrency int
	// QPS, when > 0, switches to open-loop arrival: lookups are assigned
	// scheduled send times at the offered rate, and latency is measured
	// from the *scheduled* time, so a stalled server accrues the queueing
	// delay it caused (no coordinated omission). 0 runs closed-loop.
	QPS float64
	// Keys is the sampled key-population size (default 65536); Dist picks
	// keys "zipf" (default, ZipfS skew, default 1.1) or "uniform".
	Keys  int
	Dist  string
	ZipfS float64
	// Seed makes the key population and arrival mix reproducible
	// (default 1).
	Seed int64
	// Client overrides the HTTP client.
	Client *http.Client
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, mints a root span per measured request (head
	// sampling per the tracer's 1-in-N policy) and forwards its traceparent
	// so the proxy and replicas join the trace. Warmup is never traced.
	Tracer *obs.Tracer
	// SLO, when non-nil, adds service-level-objective accounting over the
	// measured request latencies to the summary.
	SLO *SLO
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Requests <= 0 {
		o.Requests = 1000
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Keys <= 0 {
		o.Keys = 65536
	}
	if o.Dist == "" {
		o.Dist = "zipf"
	}
	if o.ZipfS <= 1 {
		o.ZipfS = 1.1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Client == nil {
		o.Client = &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 256, MaxIdleConns: 1024},
		}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// LatencySummary is a percentile digest in microseconds.
type LatencySummary struct {
	P50  float64 `json:"p50_us"`
	P90  float64 `json:"p90_us"`
	P99  float64 `json:"p99_us"`
	P999 float64 `json:"p999_us"`
	Mean float64 `json:"mean_us"`
	Max  float64 `json:"max_us"`
}

// LoadSummary is one load run's result, shaped for JSON output
// (cmd/kload emits it verbatim; scripts/cluster_smoke.sh asserts on it).
type LoadSummary struct {
	Target      string         `json:"target"`
	Dist        string         `json:"dist"`
	Batch       int            `json:"batch"`
	Concurrency int            `json:"concurrency"`
	Requests    uint64         `json:"requests"`
	Lookups     uint64         `json:"lookups"`
	Errors      uint64         `json:"errors"`
	KeyErrors   uint64         `json:"key_errors"`
	Present     uint64         `json:"present"` // lookups answered present: true
	WallSec     float64        `json:"wall_sec"`
	QPSOffered  float64        `json:"qps_offered"` // lookups/sec; 0 = closed loop
	QPSAchieved float64        `json:"qps_achieved"`
	Latency     LatencySummary `json:"latency"`
	SLO         *SLOSummary    `json:"slo,omitempty"`
	Build       obs.BuildInfo  `json:"build"`
}

// SLO is a latency service-level objective: at most 1−Quantile of measured
// requests may exceed Target (e.g. "5ms:p99" — 1% of requests may be
// slower than 5ms).
type SLO struct {
	Target   time.Duration
	Quantile float64 // 0 < Quantile < 1, e.g. 0.99 for p99
}

// String renders the objective back in ParseSLO's notation.
func (s SLO) String() string {
	return fmt.Sprintf("%s:p%s", s.Target, strconv.FormatFloat(s.Quantile*100, 'f', -1, 64))
}

// ParseSLO parses "<duration>:p<percentile>" — "5ms:p99", "250us:p99.9",
// "1s:p50" — into an SLO.
func ParseSLO(s string) (SLO, error) {
	dur, pct, ok := strings.Cut(s, ":")
	if !ok || !strings.HasPrefix(pct, "p") {
		return SLO{}, fmt.Errorf("kcluster: SLO %q not of the form <duration>:p<percentile>", s)
	}
	target, err := time.ParseDuration(dur)
	if err != nil || target <= 0 {
		return SLO{}, fmt.Errorf("kcluster: bad SLO target in %q: %v", s, err)
	}
	p, err := strconv.ParseFloat(pct[1:], 64)
	if err != nil || p <= 0 || p >= 100 {
		return SLO{}, fmt.Errorf("kcluster: bad SLO percentile in %q (want 0 < p < 100)", s)
	}
	return SLO{Target: target, Quantile: p / 100}, nil
}

// SLOSummary is the objective evaluated over one load run. ErrorBudget is
// the allowed violation fraction (1−quantile); BudgetBurnRate is the
// actual violation rate divided by that budget — burn < 1 means the run
// met the objective with room to spare, burn N means violations arrived N
// times faster than the budget allows.
type SLOSummary struct {
	Objective      string  `json:"objective"`
	TargetUS       float64 `json:"target_us"`
	Quantile       float64 `json:"quantile"`
	MeasuredUS     float64 `json:"measured_us"` // empirical latency at the objective quantile
	Met            bool    `json:"met"`
	Violations     uint64  `json:"violations"` // requests slower than target
	ViolationRate  float64 `json:"violation_rate"`
	ErrorBudget    float64 `json:"error_budget"`
	BudgetBurnRate float64 `json:"budget_burn_rate"`
}

// evalSLO scores measured request latencies (µs, any order) against the
// objective.
func evalSLO(slo SLO, lat []float64) *SLOSummary {
	out := &SLOSummary{
		Objective:   slo.String(),
		TargetUS:    float64(slo.Target) / float64(time.Microsecond),
		Quantile:    slo.Quantile,
		ErrorBudget: 1 - slo.Quantile,
	}
	if len(lat) == 0 {
		out.Met = true
		return out
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	out.MeasuredUS = s[int(slo.Quantile*float64(len(s)-1))]
	for _, v := range s {
		if v > out.TargetUS {
			out.Violations++
		}
	}
	out.ViolationRate = float64(out.Violations) / float64(len(s))
	out.BudgetBurnRate = out.ViolationRate / out.ErrorBudget
	out.Met = out.ViolationRate <= out.ErrorBudget
	return out
}

// makeKeys draws the sampled k-mer population from the served spectrum,
// rendered under dna.Random — the encoding every CLI defaults to.
func makeKeys(rng *rand.Rand, n int, db *kcount.Database) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = dna.Kmer(db.Entries[rng.Intn(db.Len())].Key).String(&dna.Random, db.K)
	}
	return keys
}

// picker selects key indices under the configured distribution.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func newPicker(seed int64, opts LoadOptions) *picker {
	rng := rand.New(rand.NewSource(seed))
	p := &picker{rng: rng, n: opts.Keys}
	if opts.Dist == "zipf" {
		p.zipf = rand.NewZipf(rng, opts.ZipfS, 1, uint64(opts.Keys-1))
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}

// RunLoad drives the target: a warmup phase, then Requests measured
// requests, closed-loop or open-loop (QPS > 0). Per-key error markers in
// otherwise-successful batches are counted separately from request-level
// failures, matching the router's degradation contract.
func RunLoad(ctx context.Context, opts LoadOptions) (LoadSummary, error) {
	opts = opts.withDefaults()
	if opts.Target == "" {
		return LoadSummary{}, fmt.Errorf("kcluster: load target required")
	}
	if opts.Dist != "zipf" && opts.Dist != "uniform" {
		return LoadSummary{}, fmt.Errorf("kcluster: unknown key distribution %q", opts.Dist)
	}
	if opts.DB == nil || opts.DB.Len() == 0 {
		return LoadSummary{}, fmt.Errorf("kcluster: load needs the served database to draw keys from")
	}
	keys := makeKeys(rand.New(rand.NewSource(opts.Seed)), opts.Keys, opts.DB)

	if opts.Warmup > 0 {
		opts.Logf("warmup: %d requests", opts.Warmup)
		w := opts
		w.Requests = opts.Warmup
		w.Warmup = 0
		w.QPS = 0      // warmup is a closed-loop burst
		w.Tracer = nil // only measured requests are traced
		runPhase(ctx, w, keys)
	}
	opts.Logf("measuring: %d requests x %d lookups", opts.Requests, opts.Batch)
	sum := runPhase(ctx, opts, keys)
	sum.Target = opts.Target
	sum.Dist = opts.Dist
	sum.Batch = opts.Batch
	sum.Concurrency = opts.Concurrency
	sum.Build = obs.ReadBuild()
	return sum, ctx.Err()
}

func runPhase(ctx context.Context, opts LoadOptions, keys []string) LoadSummary {
	var (
		next      atomic.Int64
		errs      atomic.Uint64
		keyErrs   atomic.Uint64
		present   atomic.Uint64
		completed atomic.Uint64
		lookups   atomic.Uint64
	)
	latencies := make([]float64, opts.Requests) // microseconds, indexed by request
	var interval time.Duration
	if opts.QPS > 0 {
		interval = time.Duration(float64(opts.Batch) / opts.QPS * float64(time.Second))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pick := newPicker(opts.Seed+int64(w)+1, opts)
			batch := make([]string, opts.Batch)
			tid := "worker " + strconv.Itoa(w)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				sent := time.Now()
				if interval > 0 {
					// Open loop: this request was due at its scheduled
					// arrival; latency accrues from there even if every
					// worker was stuck behind a stalled server.
					sent = start.Add(time.Duration(i) * interval)
					if d := time.Until(sent); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				for j := range batch {
					batch[j] = keys[pick.next()]
				}
				span := opts.Tracer.StartRoot("request", tid)
				results, err := doRequest(ctx, opts, batch, span.Context())
				latencies[i] = float64(time.Since(sent)) / float64(time.Microsecond)
				completed.Add(1)
				lookups.Add(uint64(opts.Batch))
				if err != nil {
					errs.Add(1)
					span.SetAttr("error", err.Error())
					results = nil
				}
				for _, res := range results {
					if res.Error != "" {
						keyErrs.Add(1)
					} else if res.Present {
						present.Add(1)
					}
				}
				span.End()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	sum := LoadSummary{
		Requests:   completed.Load(),
		Lookups:    lookups.Load(),
		Errors:     errs.Load(),
		KeyErrors:  keyErrs.Load(),
		Present:    present.Load(),
		WallSec:    wall,
		QPSOffered: opts.QPS,
	}
	if wall > 0 {
		sum.QPSAchieved = float64(sum.Lookups) / wall
	}
	sum.Latency = summarize(latencies[:completed.Load()])
	if opts.SLO != nil {
		sum.SLO = evalSLO(*opts.SLO, latencies[:completed.Load()])
	}
	return sum
}

// doRequest sends one lookup (batch of 1 → GET /kmer) or batch request and
// returns the per-key answers, or a request-level error. A sampled span
// context rides the request as its traceparent so the serving tier joins
// the trace rooted here.
func doRequest(ctx context.Context, opts LoadOptions, batch []string, sc obs.SpanContext) ([]Result, error) {
	method, url, limit := http.MethodGet, opts.Target+"/kmer/"+batch[0], int64(maxPointBody)
	var body io.Reader
	if len(batch) > 1 {
		payload, err := json.Marshal(struct {
			Kmers []string `json:"kmers"`
		}{Kmers: batch})
		if err != nil {
			return nil, err
		}
		method, url, limit, body = http.MethodPost, opts.Target+"/batch", maxBatchBody, bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc.Sampled {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readStatusError(resp)
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, limit))
	if body == nil {
		var res Result
		err = dec.Decode(&res)
		return []Result{res}, err
	}
	var br BatchResponse
	err = dec.Decode(&br)
	return br.Results, err
}

// summarize digests latencies (µs) into percentiles.
func summarize(lat []float64) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	pct := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	var sum float64
	for _, v := range s {
		sum += v
	}
	return LatencySummary{
		P50:  pct(0.50),
		P90:  pct(0.90),
		P99:  pct(0.99),
		P999: pct(0.999),
		Mean: sum / float64(len(s)),
		Max:  s[len(s)-1],
	}
}
