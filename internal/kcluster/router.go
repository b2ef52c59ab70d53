package kcluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/obs"
)

// Batch limits mirror kserve's: the router enforces them before fanning
// out, so an oversized batch is rejected once instead of per shard.
const (
	maxBatchBody  = 1 << 20
	maxBatchKmers = 8192
)

// The hedge deadline is the hedgeQuantile of observed winning-upstream
// latencies, never under hedgeMin, and HedgeMax until hedgeMinSamples
// latencies make the estimate worth trusting. requestTimeout bounds one
// upstream attempt.
const (
	hedgeQuantile   = 0.9
	hedgeMin        = time.Millisecond
	hedgeMinSamples = 64
	requestTimeout  = 2 * time.Second
)

// RouterOptions tunes the front router.
type RouterOptions struct {
	// Enc is the base encoding queries are packed under; it must match the
	// replicas' (default dna.Random, the CLI default).
	Enc *dna.Encoding
	// HedgeMax is the upper clamp on the hedge delay, and the delay while
	// the latency histogram is cold (default 25ms).
	HedgeMax time.Duration
	// Tracer, when non-nil, records request spans for sampled traffic:
	// server spans for /kmer and /batch admission, one span per upstream
	// attempt (annotated replica, hedged, and winner/canceled/error
	// outcome), with the attempt's traceparent forwarded upstream so the
	// replica's spans join the same trace. nil disables tracing.
	Tracer *obs.Tracer
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.Enc == nil {
		o.Enc = &dna.Random
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = 25 * time.Millisecond
	}
	if o.HedgeMax < hedgeMin {
		o.HedgeMax = hedgeMin
	}
	return o
}

// Result is one answered lookup. Error is set (and Count/Present zero)
// when the key could not be answered — a bad k-mer, or its shard down.
type Result struct {
	Kmer    string `json:"kmer"`
	Count   uint32 `json:"count"`
	Present bool   `json:"present"`
	Error   string `json:"error,omitempty"`
}

// BatchResponse is the router's POST /batch answer: results index-aligned
// with the request, Complete=false when any key degraded to an error
// marker for cluster reasons (shard unavailable, upstream failure) rather
// than a bad query.
type BatchResponse struct {
	Results  []Result `json:"results"`
	Complete bool     `json:"complete"`
	Errors   int      `json:"errors"`
}

// Router fans lookups out to the registry's replicas: shard by the
// pipeline owner hash, take the shard's candidates from the routing view,
// hedge at a latency quantile, retry hard failures, degrade per key.
type Router struct {
	reg    *Registry
	opts   RouterOptions
	client *http.Client
	met    routerMetrics
}

type routerMetrics struct {
	requests       *obs.Counter
	batches        *obs.Counter
	hedges         *obs.Counter
	hedgeWins      *obs.Counter
	retries        *obs.Counter
	unrouteable    *obs.Counter
	partialBatches *obs.Counter
	latency        *obs.Histogram

	// stage latency histograms (kcluster_stage_seconds): where a request's
	// time goes inside the proxy — shard/candidate resolution, the winning
	// upstream attempt, how long the primary ran alone before a hedge
	// fired, and end-to-end routing.
	stageRoute     *obs.Histogram
	stageUpstream  *obs.Histogram
	stageHedgeWait *obs.Histogram
	stageTotal     *obs.Histogram
}

// NewRouter builds a router over an existing registry (whose Obs registry
// also receives the router metrics).
func NewRouter(reg *Registry, opts RouterOptions) *Router {
	r := &Router{reg: reg, opts: opts.withDefaults(), client: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256, MaxIdleConns: 1024},
	}}
	o := reg.Obs()
	r.met = routerMetrics{
		requests:       o.Counter("kcluster_requests_total", "Client lookups routed (batch keys count individually)."),
		batches:        o.Counter("kcluster_batches_total", "Client batch requests routed."),
		hedges:         o.Counter("kcluster_hedges_total", "Hedged upstream requests fired after the latency-quantile deadline."),
		hedgeWins:      o.Counter("kcluster_hedge_wins_total", "Races won by the hedged request."),
		retries:        o.Counter("kcluster_retries_total", "Upstream retries after a hard failure."),
		unrouteable:    o.Counter("kcluster_unrouteable_total", "Lookups degraded because their shard had no routable replica."),
		partialBatches: o.Counter("kcluster_partial_batches_total", "Batches answered with at least one cluster-degraded key."),
		latency:        o.Histogram("kcluster_request_latency_seconds", "Latency of winning upstream requests.", obs.ExpBuckets(0.00025, 2, 12)),
	}
	stageHelp := "Router stage latency: route is shard/candidate resolution, upstream the winning attempt, hedge_wait how long the primary ran before a hedge fired, total end-to-end routing."
	stageBuckets := obs.ExpBuckets(0.00001, 4, 10)
	r.met.stageRoute = o.Histogram("kcluster_stage_seconds", stageHelp, stageBuckets, obs.L("stage", "route"))
	r.met.stageUpstream = o.Histogram("kcluster_stage_seconds", stageHelp, stageBuckets, obs.L("stage", "upstream"))
	r.met.stageHedgeWait = o.Histogram("kcluster_stage_seconds", stageHelp, stageBuckets, obs.L("stage", "hedge_wait"))
	r.met.stageTotal = o.Histogram("kcluster_stage_seconds", stageHelp, stageBuckets, obs.L("stage", "total"))
	return r
}

// Registry returns the router's registry.
func (r *Router) Registry() *Registry { return r.reg }

// hedgeDelay is the current hedge deadline.
func (r *Router) hedgeDelay() time.Duration {
	if r.met.latency.Count() < hedgeMinSamples {
		return r.opts.HedgeMax
	}
	q := r.met.latency.Quantile(hedgeQuantile)
	return clampDuration(time.Duration(q*float64(time.Second)), hedgeMin, r.opts.HedgeMax)
}

// startAttempt opens one upstream-attempt span under the caller's trace.
// With no tracer, or an unsampled caller, the returned handle is a free
// no-op.
func (r *Router) startAttempt(ctx context.Context, rep *Replica, hedged bool) obs.ReqSpanHandle {
	t := r.opts.Tracer
	if t == nil {
		return obs.ReqSpanHandle{}
	}
	parent := obs.SpanFromContext(ctx)
	if !parent.Sampled {
		return obs.ReqSpanHandle{}
	}
	span := t.StartSpan(parent, "upstream", rep.ID())
	span.SetAttr("replica", rep.ID())
	span.SetAttr("addr", rep.Addr)
	span.SetAttr("hedged", strconv.FormatBool(hedged))
	return span
}

// httpStatusError is a non-200 upstream answer.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("upstream status %d: %s", e.status, e.body)
}

// isHealthStrike reports whether a failure should count against the
// replica's health: transport errors and 5xx, except 503 (draining or
// shedding — the probe loop classifies those by body) and 429 (admission
// control working as designed under load).
func isHealthStrike(err error) bool {
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.status >= 500 && se.status != http.StatusServiceUnavailable
	}
	return !errors.Is(err, context.Canceled)
}

// raceReplicas runs do against cands in order: cands[0] immediately, the
// next candidate either when the hedge timer fires (hedge) or when the
// previous attempt hard-fails (retry). First success wins and cancels the
// losers; the replica's latency and failure streak feed the registry.
//
// When the caller's context carries a sampled trace, every attempt records
// an "upstream" span: the attempt's own span context rides the context
// into do (lookupOnce/batchOnce forward it as the outgoing traceparent, so
// the replica's server span becomes its child) and the span is annotated
// with the replica, whether it was a hedge, and how the race ended for it
// — winner, canceled (a loser cut down by the winner's cancel), or error.
func raceReplicas[T any](r *Router, ctx context.Context, cands []*Replica, do func(ctx context.Context, rep *Replica) (T, error)) (T, error) {
	var zero T
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		val    T
		err    error
		rep    *Replica
		hedged bool
		dur    time.Duration
	}
	var decided atomic.Bool // first successful attempt wins the race
	raceStart := time.Now()
	results := make(chan outcome, len(cands))
	launched := 0
	launch := func(hedged bool) {
		rep := cands[launched]
		launched++
		rep.inflight.Add(1)
		go func() {
			span := r.startAttempt(ctx, rep, hedged)
			actx := rctx
			if span.Sampled() {
				actx = obs.ContextWithSpan(rctx, span.Context())
			}
			start := time.Now()
			v, err := do(actx, rep)
			dur := time.Since(start)
			rep.inflight.Add(-1)
			won := err == nil && decided.CompareAndSwap(false, true)
			if span.Sampled() {
				switch {
				case won:
					span.SetAttr("outcome", "winner")
				case err == nil:
					span.SetAttr("outcome", "late_success")
				case errors.Is(err, context.Canceled) && ctx.Err() == nil:
					span.SetAttr("outcome", "canceled")
				default:
					span.SetAttr("outcome", "error")
					span.SetAttr("error", err.Error())
				}
				span.End()
			}
			results <- outcome{val: v, err: err, rep: rep, hedged: hedged, dur: dur}
		}()
	}
	launch(false)
	var hedgeC <-chan time.Time
	if len(cands) > 1 {
		t := time.NewTimer(r.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			if firstErr != nil {
				return zero, firstErr
			}
			return zero, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				r.met.hedges.Inc()
				r.met.stageHedgeWait.Observe(time.Since(raceStart).Seconds())
				launch(true)
				pending++
			}
		case o := <-results:
			pending--
			if o.err == nil {
				r.reg.ReportSuccess(o.rep, o.dur)
				r.met.latency.Observe(o.dur.Seconds())
				r.met.stageUpstream.Observe(o.dur.Seconds())
				if o.hedged {
					r.met.hedgeWins.Inc()
				}
				return o.val, nil
			}
			// A loser canceled because someone else won never reaches here
			// (we return on first success); rctx cancellation only happens
			// via the parent ctx, handled above. So this is a real failure.
			if isHealthStrike(o.err) {
				r.reg.ReportFailure(o.rep, o.err)
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if launched < len(cands) {
				r.met.retries.Inc()
				launch(false)
				pending++
			} else if pending == 0 {
				return zero, firstErr
			}
		}
	}
}

// lookupOnce is one upstream GET /kmer attempt.
func (r *Router) lookupOnce(ctx context.Context, rep *Replica, seq string) (Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rep.Addr+"/kmer/"+seq, nil)
	if err != nil {
		return Result{}, err
	}
	if sc := obs.SpanFromContext(ctx); sc.Sampled {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return Result{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Result{}, readStatusError(resp)
	}
	var res Result
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxPointBody)).Decode(&res); err != nil {
		return Result{}, fmt.Errorf("bad upstream body from %s/kmer: %w", rep.Addr, err)
	}
	return res, nil
}

// batchOnce is one upstream POST /batch attempt for one shard's keys.
func (r *Router) batchOnce(ctx context.Context, rep *Replica, seqs []string) ([]Result, error) {
	body, err := json.Marshal(struct {
		Kmers []string `json:"kmers"`
	}{Kmers: seqs})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+rep.Addr+"/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sc := obs.SpanFromContext(ctx); sc.Sampled {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, readStatusError(resp)
	}
	var br struct {
		Results []Result `json:"results"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBatchBody)).Decode(&br); err != nil {
		return nil, fmt.Errorf("bad upstream body from %s/batch: %w", rep.Addr, err)
	}
	if len(br.Results) != len(seqs) {
		return nil, fmt.Errorf("upstream answered %d results for %d kmers", len(br.Results), len(seqs))
	}
	return br.Results, nil
}

func readStatusError(resp *http.Response) error {
	buf := make([]byte, 256)
	n, _ := resp.Body.Read(buf)
	return &httpStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(buf[:n]))}
}

// shardOf parses a query under the view's shape and names the cluster
// shard that owns it. A parse error is the client's mistake (bad query).
func (r *Router) shardOf(v *view, seq string) (int, error) {
	key, err := kcount.ParseQuery(r.opts.Enc, v.k, v.canonical, seq)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return kernels.DestOf(key, v.shards), nil
}

// Lookup answers one point lookup, hedging and retrying across the
// candidates of the key's shard.
func (r *Router) Lookup(ctx context.Context, seq string) (Result, error) {
	start := time.Now()
	r.met.requests.Inc()
	v := r.reg.view.Load()
	if v == nil {
		return Result{}, ErrNotReady
	}
	shard, err := r.shardOf(v, seq)
	if err != nil {
		return Result{}, err
	}
	cands := v.table[shard].candidates()
	if len(cands) == 0 {
		r.met.unrouteable.Inc()
		return Result{}, ErrShardUnavailable
	}
	r.met.stageRoute.Observe(time.Since(start).Seconds())
	res, err := raceReplicas(r, ctx, cands, func(ctx context.Context, rep *Replica) (Result, error) {
		return r.lookupOnce(ctx, rep, seq)
	})
	r.met.stageTotal.Observe(time.Since(start).Seconds())
	return res, err
}

// batchGroup is the slice of a client batch owned by one cluster shard.
type batchGroup struct {
	seqs []string
	idx  []int // seqs[j] is the client's kmers[idx[j]]
}

// Batch answers a client batch from one view: keys are grouped by cluster
// shard, each group raced (hedge + retry) as one upstream sub-batch, and
// failures degrade to per-key error markers instead of failing the whole
// batch.
func (r *Router) Batch(ctx context.Context, kmers []string) (BatchResponse, error) {
	start := time.Now()
	r.met.batches.Inc()
	if len(kmers) > maxBatchKmers {
		return BatchResponse{}, fmt.Errorf("%w: batch of %d exceeds %d", ErrBadQuery, len(kmers), maxBatchKmers)
	}
	v := r.reg.view.Load()
	if v == nil {
		return BatchResponse{}, ErrNotReady
	}
	r.met.requests.Add(uint64(len(kmers)))
	out := BatchResponse{Results: make([]Result, len(kmers))}
	groups := make([]batchGroup, v.shards)
	for i, seq := range kmers {
		shard, err := r.shardOf(v, seq)
		if err != nil {
			out.Results[i] = Result{Kmer: seq, Error: err.Error()}
			continue
		}
		g := &groups[shard]
		g.seqs = append(g.seqs, seq)
		g.idx = append(g.idx, i)
	}
	r.met.stageRoute.Observe(time.Since(start).Seconds())
	var (
		wg       sync.WaitGroup
		degraded atomic.Bool
	)
	// Each group fills its own elements of out.Results.
	fail := func(g *batchGroup, err error) {
		degraded.Store(true)
		for j, i := range g.idx {
			out.Results[i] = Result{Kmer: g.seqs[j], Error: err.Error()}
		}
	}
	for shard := range groups {
		g := &groups[shard]
		if len(g.seqs) == 0 {
			continue
		}
		cands := v.table[shard].candidates()
		if len(cands) == 0 {
			r.met.unrouteable.Add(uint64(len(g.seqs)))
			fail(g, ErrShardUnavailable)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := raceReplicas(r, ctx, cands, func(ctx context.Context, rep *Replica) ([]Result, error) {
				return r.batchOnce(ctx, rep, g.seqs)
			})
			if err != nil {
				fail(g, err)
				return
			}
			for j, i := range g.idx {
				out.Results[i] = results[j]
			}
		}()
	}
	wg.Wait()
	out.Complete = !degraded.Load()
	if !out.Complete {
		r.met.partialBatches.Inc()
	}
	for i := range out.Results {
		if out.Results[i].Error != "" {
			out.Errors++
		}
	}
	r.met.stageTotal.Observe(time.Since(start).Seconds())
	return out, nil
}
