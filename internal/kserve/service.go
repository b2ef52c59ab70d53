// Package kserve is the serving layer over counted k-mer spectra: it loads
// a KCD database (internal/kcount) and answers point, batch, histogram and
// top-N queries over HTTP. The batch counter's output is the product — KMC3
// ships a database + query toolkit beside its counter for the same reason —
// and the serving shape deliberately mirrors the counting pipeline:
//
//   - Entries are sharded with the exchange phase's owner-rank hash
//     (kernels.DestOf), so shard s serves exactly the keys rank s would
//     have counted, and the serving-side load imbalance is the same
//     Table III metric the paper reports for counting.
//   - Each shard runs one worker loop that coalesces requests into
//     micro-batches (max-batch-size / max-wait knobs) — the on-line
//     analogue of the pipeline's bulk-synchronous rounds.
//   - A bounded hot-k-mer LRU with singleflight dedup fronts the shards;
//     admission control sheds load (HTTP 429) when a shard queue is full
//     instead of growing goroutines without bound.
//
// Service is the embeddable core; server.go adds the HTTP surface used by
// cmd/kserve and dedukt -serve.
package kserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/obs"
)

// Exported failure modes; the HTTP layer maps them to 429 and 503.
var (
	// ErrOverloaded reports that the owning shard's queue was full — the
	// admission-control path. Retry after backoff.
	ErrOverloaded = errors.New("kserve: shard queue full")
	// ErrClosed reports a lookup issued after Close began draining.
	ErrClosed = errors.New("kserve: service closed")
)

// Options tunes the service. The zero value picks sensible defaults.
type Options struct {
	// Shards is the number of serving shards (default GOMAXPROCS, min 1).
	Shards int
	// MaxBatch caps a micro-batch (default 64 keys).
	MaxBatch int
	// MaxWait bounds how long a worker holds an open micro-batch waiting
	// for more requests (default 200µs; 0 means "serve whatever is
	// immediately queued", never an indefinite wait).
	MaxWait time.Duration
	// QueueDepth bounds each shard's pending-request queue; a full queue
	// rejects with ErrOverloaded (default 1024).
	QueueDepth int
	// CacheSize bounds the hot-k-mer LRU in entries (default 4096;
	// negative disables caching).
	CacheSize int
	// TopN is how many top k-mers to precompute for /topn (default 64).
	TopN int
	// Enc is the base encoding ASCII queries are packed under (default
	// dna.Random, the CLI's encoding).
	Enc *dna.Encoding
	// Registry, when non-nil, is the observability registry the service
	// registers its metrics into — share one with a pipeline recorder to
	// get counting and serving metrics in a single /metrics exposition.
	// nil creates a private registry (GET /metrics works either way).
	Registry *obs.Registry
	// ReplicaID names this process in a replicated cluster; it is reported
	// in /healthz so a router (cmd/kproxy) can tell replicas apart. Empty
	// is fine for standalone use.
	ReplicaID string
	// ShardIndex/ShardCount declare which cluster shard of the key space
	// this replica holds (keys with kernels.DestOf(key, ShardCount) ==
	// ShardIndex; see FilterShard). The default 0/1 means "the whole key
	// space". These are distinct from Shards, the in-process worker split.
	ShardIndex int
	ShardCount int
	// DrainGrace is how long ServeUntilInterrupt keeps serving after
	// BeginDrain before shutting down — the handoff window in which
	// /healthz already answers 503 "draining" so a router can move traffic
	// off this replica while in-flight and freshly routed requests still
	// succeed. 0 drains immediately (the standalone behavior).
	DrainGrace time.Duration
	// Slow, when positive, sleeps every /kmer and /batch request by that
	// duration before serving it — straggler fault injection for hedging
	// tests and cluster smoke scripts. Never set it in production.
	Slow time.Duration
	// Tracer, when non-nil, records request spans for sampled lookups:
	// the HTTP handlers continue traces from incoming traceparent headers
	// and the shard workers attribute queue wait and micro-batch serving
	// to them. nil (the default) disables tracing entirely; unsampled
	// requests cost nothing beyond a context check either way.
	Tracer *obs.Tracer

	// testHookBeforeServe, when set (tests only), runs in a shard worker
	// before each batch is served — used to hold a shard busy
	// deterministically. Set before New so workers never race the write.
	testHookBeforeServe func(shardID, batchLen int)
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards < 1 {
			o.Shards = 1
		}
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxWait < 0 {
		o.MaxWait = 0
	} else if o.MaxWait == 0 {
		o.MaxWait = 200 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.TopN <= 0 {
		o.TopN = 64
	}
	if o.Enc == nil {
		o.Enc = &dna.Random
	}
	if o.ShardCount <= 0 {
		o.ShardCount = 1
		o.ShardIndex = 0
	}
	return o
}

// Service shards a counted spectrum and serves lookups against it.
type Service struct {
	opts      Options
	k         int
	canonical bool
	shards    []*shard
	cache     *lruCache // nil when disabled
	flight    flightGroup
	met       serviceMetrics
	reg       *obs.Registry

	// Precomputed at load: whole-spectrum queries never touch the shards.
	hist     kcount.Histogram
	top      []kcount.KV
	distinct uint64
	total    uint64

	mu        sync.RWMutex // serializes enqueue against Close
	closed    bool
	closedBit atomic.Bool    // fast-path mirror of closed for cache hits
	draining  atomic.Bool    // BeginDrain called; still serving
	wg        sync.WaitGroup // shard workers
}

// New builds a service over db. The database is split with the exchange
// owner hash; db itself is not retained.
func New(db *kcount.Database, opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if db == nil {
		return nil, fmt.Errorf("kserve: nil database")
	}
	parts, err := db.Split(opts.Shards, func(key uint64) int {
		return kernels.DestOf(key, opts.Shards)
	})
	if err != nil {
		return nil, err
	}
	s := &Service{
		opts:      opts,
		k:         db.K,
		canonical: db.Canonical(),
	}
	sum := kcount.Summarize(db, opts.TopN)
	s.hist, s.top, s.distinct, s.total = sum.Hist, sum.TopK(), sum.Distinct, sum.Total
	if opts.CacheSize > 0 {
		s.cache = newLRU(opts.CacheSize)
	}
	s.flight.m = make(map[uint64]*call)
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.initMetrics(reg)
	s.shards = make([]*shard, opts.Shards)
	for i, p := range parts {
		s.shards[i] = &shard{
			id:      i,
			entries: p.Entries,
			queue:   make(chan *call, opts.QueueDepth),
			svc:     s,
		}
		s.initShardMetrics(reg, s.shards[i])
	}
	for i := range s.shards {
		s.wg.Add(1)
		go s.shards[i].run()
	}
	return s, nil
}

// Registry returns the observability registry the service's metrics live
// in — the one passed via Options.Registry, or the private registry New
// created. Use it to serve Prometheus text exposition.
func (s *Service) Registry() *obs.Registry { return s.reg }

// K returns the database k-mer length.
func (s *Service) K() int { return s.k }

// Canonical reports whether the served spectrum holds canonical counts.
func (s *Service) Canonical() bool { return s.canonical }

// Distinct returns the number of distinct k-mers served.
func (s *Service) Distinct() uint64 { return s.distinct }

// Histogram returns the precomputed frequency spectrum.
func (s *Service) Histogram() kcount.Histogram { return s.hist }

// Top returns up to n of the most frequent k-mers (n capped at
// Options.TopN, the precomputed horizon).
func (s *Service) Top(n int) []kcount.KV {
	if n > len(s.top) {
		n = len(s.top)
	}
	if n < 0 {
		n = 0
	}
	return s.top[:n]
}

// ParseQuery packs an ASCII k-mer into the service's key space (length
// check, encoding, canonical folding) — kcount.ParseQuery under the
// service's parameters.
func (s *Service) ParseQuery(seq string) (uint64, error) {
	return kcount.ParseQuery(s.opts.Enc, s.k, s.canonical, seq)
}

// Lookup resolves one ASCII k-mer. Absent k-mers return 0, nil.
func (s *Service) Lookup(ctx context.Context, seq string) (uint32, error) {
	key, err := s.ParseQuery(seq)
	if err != nil {
		return 0, err
	}
	return s.LookupKey(ctx, key)
}

// LookupKey resolves one packed key through cache, singleflight and the
// owning shard's micro-batch queue.
func (s *Service) LookupKey(ctx context.Context, key uint64) (uint32, error) {
	c, err := s.getAsync(ctx, key)
	if err != nil {
		return 0, err
	}
	return c.wait(ctx)
}

// LookupBatch resolves a batch of ASCII k-mers: all keys are enqueued
// before any reply is awaited, so one round trip per shard suffices
// regardless of batch size. Any malformed k-mer fails the whole batch.
func (s *Service) LookupBatch(ctx context.Context, seqs []string) ([]uint32, error) {
	keys := make([]uint64, len(seqs))
	for i, q := range seqs {
		key, err := s.ParseQuery(q)
		if err != nil {
			return nil, fmt.Errorf("kmer %d: %w", i, err)
		}
		keys[i] = key
	}
	return s.LookupKeys(ctx, keys)
}

// LookupKeys is LookupBatch over pre-packed keys.
func (s *Service) LookupKeys(ctx context.Context, keys []uint64) ([]uint32, error) {
	out := make([]uint32, len(keys))
	if err := s.LookupKeysInto(ctx, keys, out); err != nil {
		return nil, err
	}
	return out, nil
}

// batchSlab is the pooled per-batch state of LookupKeysInto: one call per
// key, all reporting completion to one shared group, so a steady batch
// workload allocates only the group's completion channel per batch.
type batchSlab struct {
	calls []call
	grp   callGroup
}

var slabPool = sync.Pool{New: func() any { return new(batchSlab) }}

func getSlab(n int) *batchSlab {
	s := slabPool.Get().(*batchSlab)
	if cap(s.calls) < n {
		s.calls = make([]call, n)
	}
	s.calls = s.calls[:n]
	s.grp.remaining.Store(int32(n))
	s.grp.done = make(chan struct{})
	return s
}

// LookupKeysInto resolves keys into out (which must be exactly len(keys)
// long), the allocation-free core of LookupBatch: per-batch call state
// comes from a pool and every key completes into one shared group. Batch
// calls skip the singleflight group — bulk lookups rarely collide, and
// skipping it keeps the hot path free of the per-key map mutex — but still
// read and publish the hot-k-mer cache. If any key fails admission
// (ErrOverloaded/ErrClosed) the first such error is returned after the
// rest of the batch completes; out then holds counts for the keys that
// were served and 0 for the failed ones.
func (s *Service) LookupKeysInto(ctx context.Context, keys []uint64, out []uint32) error {
	if len(out) != len(keys) {
		return fmt.Errorf("kserve: out length %d != keys length %d", len(out), len(keys))
	}
	if len(keys) == 0 {
		return nil
	}
	slab := getSlab(len(keys))
	now := time.Now()
	var sc obs.SpanContext
	if s.opts.Tracer != nil {
		sc = obs.SpanFromContext(ctx)
	}
	for i, key := range keys {
		c := &slab.calls[i]
		*c = call{key: key, grp: &slab.grp, enq: now, sc: sc}
		if s.closedBit.Load() {
			c.complete(0, ErrClosed)
			continue
		}
		s.met.requests.Add(1)
		if s.cache != nil {
			if v, ok := s.cache.get(key); ok {
				s.met.cacheHits.Add(1)
				c.complete(v, nil)
				continue
			}
			s.met.cacheMisses.Add(1)
		}
		sh := s.shards[kernels.DestOf(key, len(s.shards))]
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			c.complete(0, ErrClosed)
			continue
		}
		select {
		case sh.queue <- c:
			s.mu.RUnlock()
			sh.met.enqueued.Add(1)
		default:
			s.mu.RUnlock()
			sh.met.rejected.Add(1)
			s.met.rejected.Add(1)
			c.complete(0, ErrOverloaded)
		}
	}
	select {
	case <-slab.grp.done:
	case <-ctx.Done():
		// Abandoned: enqueued calls will still complete into this slab, so
		// it must not be pooled for reuse.
		return ctx.Err()
	}
	var firstErr error
	for i := range slab.calls {
		out[i] = slab.calls[i].val
		if err := slab.calls[i].err; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	slabPool.Put(slab)
	return firstErr
}

// getAsync starts (or joins) the resolution of key and returns its call.
// Cache hits return an already-completed call.
func (s *Service) getAsync(ctx context.Context, key uint64) (*call, error) {
	if s.closedBit.Load() {
		return nil, ErrClosed
	}
	s.met.requests.Add(1)
	if s.cache != nil {
		if v, ok := s.cache.get(key); ok {
			s.met.cacheHits.Add(1)
			return completedCall(v), nil
		}
		s.met.cacheMisses.Add(1)
	}

	c, leader := s.flight.join(key)
	if !leader {
		s.met.coalesced.Add(1)
		return c, nil
	}
	c.enq = time.Now()
	if s.opts.Tracer != nil {
		c.sc = obs.SpanFromContext(ctx)
	}

	sh := s.shards[kernels.DestOf(key, len(s.shards))]
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.flight.forget(key)
		c.complete(0, ErrClosed)
		return nil, ErrClosed
	}
	select {
	case sh.queue <- c:
		s.mu.RUnlock()
		sh.met.enqueued.Add(1)
		return c, nil
	default:
		s.mu.RUnlock()
		s.flight.forget(key)
		sh.met.rejected.Add(1)
		s.met.rejected.Add(1)
		c.complete(0, ErrOverloaded)
		return nil, ErrOverloaded
	}
}

// BeginDrain marks the service as draining without refusing lookups: from
// here /healthz answers 503 (with Retry-After) so a cluster router stops
// routing new traffic to this replica, while requests already in flight —
// and any that still arrive during the handoff window — are served
// normally. Call Close after the window to stop serving. Idempotent.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain or Close has begun.
func (s *Service) Draining() bool { return s.draining.Load() || s.closedBit.Load() }

// Close drains the service: no new lookups are admitted, every queued
// request is answered, then the shard workers exit. Safe to call more than
// once and concurrently with lookups.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.closedBit.Store(true)
	s.draining.Store(true)
	s.mu.Unlock()
	// No enqueue can start after this point (closed is checked under the
	// read lock before every send), so closing the queues is race-free and
	// workers drain the buffered remainder before exiting.
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.wg.Wait()
}
