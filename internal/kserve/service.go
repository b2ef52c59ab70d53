// Package kserve is the serving layer over counted k-mer spectra: it loads
// a KCD database (internal/kcount) and answers point, batch, histogram and
// top-N queries over HTTP. The batch counter's output is the product — KMC3
// ships a database + query toolkit beside its counter for the same reason —
// and it is served in the layout KMC 2/3 store theirs in: an offsets array
// over a k-mer prefix and only each key's suffix, built once at load (see
// index), with nothing in front.
//
//   - A lookup is admit → read the key's prefix bucket and search its few
//     suffixes → release: lock-free and allocation-free. The index is
//     immutable while served, so concurrent readers need no coordination.
//   - Admission is one atomic in-flight counter: past Options.QueueDepth a
//     request is shed (HTTP 429), never queued or blocked.
//   - Across processes the key space is split with the exchange phase's
//     owner-rank hash (kernels.DestOf; see FilterShard and
//     internal/kcluster), so cluster shard s serves exactly the keys rank s
//     would have counted.
//
// Service is the embeddable core; server.go adds the HTTP surface used by
// cmd/kserve and dedukt -serve.
package kserve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/obs"
)

// Exported failure modes; the HTTP layer maps them to 429 and 503.
var (
	// ErrOverloaded reports that the in-flight bound (Options.QueueDepth)
	// was reached — the admission-control path. Retry after backoff.
	ErrOverloaded = errors.New("kserve: too many lookups in flight")
	// ErrClosed reports a lookup issued after Close began draining.
	ErrClosed = errors.New("kserve: service closed")
)

// Options tunes the service. The zero value picks sensible defaults.
type Options struct {
	// QueueDepth bounds the lookups in flight at once (a batch counts as
	// one); a request past the bound is rejected with ErrOverloaded, never
	// queued (default 1024).
	QueueDepth int
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
	// space".
	ShardIndex int
	ShardCount int
	// DrainGrace is how long ServeUntilInterrupt keeps serving after
	// BeginDrain before shutting down — the handoff window in which
	// /healthz already answers 503 "draining" so a router can move traffic
	// off this replica while in-flight and freshly routed requests still
	// succeed. 0 drains immediately (the standalone behavior).
	DrainGrace time.Duration
	// Slow, when positive, holds every admitted lookup (point or batch) by
	// that duration before it is read — straggler fault injection for
	// hedging tests and cluster smoke scripts, and, being inside the
	// admitted section, what saturates the in-flight bound on demand.
	// Never set it in production.
	Slow time.Duration
	// Tracer, when non-nil, records request spans for sampled lookups: the
	// HTTP handlers continue traces from incoming traceparent headers. nil
	// (the default) disables tracing entirely; unsampled requests cost
	// nothing either way.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
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

// Service serves lookups against one immutable counted spectrum.
type Service struct {
	opts  Options
	k     int
	flags uint32 // the database's kcount.Flag* bits
	n     int    // distinct k-mers served
	idx   *index
	met   serviceMetrics
	reg   *obs.Registry

	// Precomputed at load: whole-spectrum queries never search.
	hist kcount.Histogram
	top  []kcount.KV

	inflight atomic.Int64 // admitted lookups not yet released
	closed   atomic.Bool
	draining atomic.Bool // BeginDrain called; still serving
}

// New builds a service over db: it indexes db.Entries, which must ascend
// strictly, into a prefix index of about 4 B a k-mer, precomputes the
// histogram and top-N, and keeps nothing else of db, so a caller that drops
// db lets it be collected.
func New(db *kcount.Database, opts Options) (*Service, error) {
	opts = opts.withDefaults()
	if db == nil {
		return nil, fmt.Errorf("kserve: nil database")
	}
	idx, err := newIndex(db.K, db.Entries)
	if err != nil {
		return nil, err
	}
	s := &Service{opts: opts, k: db.K, flags: db.Flags, n: db.Len(), idx: idx}
	sum := kcount.Summarize(db, opts.TopN)
	s.hist, s.top = sum.Hist, sum.TopK()
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.initMetrics(reg)
	return s, nil
}

// Registry returns the observability registry the service's metrics live
// in — the one passed via Options.Registry, or the private registry New
// created. Use it to serve Prometheus text exposition.
func (s *Service) Registry() *obs.Registry { return s.reg }

// K returns the database k-mer length.
func (s *Service) K() int { return s.k }

// Canonical reports whether the served spectrum holds canonical counts.
func (s *Service) Canonical() bool { return s.flags&kcount.FlagCanonical != 0 }

// Distinct returns the number of distinct k-mers served.
func (s *Service) Distinct() uint64 { return uint64(s.n) }

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
	return kcount.ParseQuery(s.opts.Enc, s.k, s.Canonical(), seq)
}

// Lookup resolves one ASCII k-mer. Absent k-mers return 0, nil.
func (s *Service) Lookup(ctx context.Context, seq string) (uint32, error) {
	key, err := s.ParseQuery(seq)
	if err != nil {
		return 0, err
	}
	return s.LookupKey(ctx, key)
}

// admit takes one in-flight slot for a request of n keys, or says why not:
// ctx already done, service closed, or the in-flight bound reached (counted
// as one rejection). Every nil return must be paired with a release. The
// counter is raised before closed is read, so Close — which sets closed,
// then waits for zero — can never miss a lookup that saw the service open.
func (s *Service) admit(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	inflight := s.inflight.Add(1)
	if s.closed.Load() {
		s.release()
		return ErrClosed
	}
	s.met.requests.Add(uint64(n))
	if inflight > int64(s.opts.QueueDepth) {
		s.release()
		s.met.rejected.Add(1)
		return ErrOverloaded
	}
	if d := s.opts.Slow; d > 0 {
		time.Sleep(d)
	}
	return nil
}

func (s *Service) release() { s.inflight.Add(-1) }

// LookupKey resolves one packed key: admit, search the key's prefix
// bucket, release. Absent keys return 0, nil.
func (s *Service) LookupKey(ctx context.Context, key uint64) (uint32, error) {
	if err := s.admit(ctx, 1); err != nil {
		return 0, err
	}
	v := s.idx.get(key)
	s.release()
	return v, nil
}

// LookupKeysInto resolves pre-packed keys into out (which must be exactly
// len(keys) long) without allocating. The batch is one admission: it is
// served whole or refused whole (ErrOverloaded / ErrClosed), and out is
// untouched when it is refused.
func (s *Service) LookupKeysInto(ctx context.Context, keys []uint64, out []uint32) error {
	if len(out) != len(keys) {
		return fmt.Errorf("kserve: out length %d != keys length %d", len(out), len(keys))
	}
	if len(keys) == 0 {
		return nil
	}
	if err := s.admit(ctx, len(keys)); err != nil {
		return err
	}
	for i, key := range keys {
		out[i] = s.idx.get(key)
	}
	s.release()
	return nil
}

// BeginDrain marks the service as draining without refusing lookups: from
// here /healthz answers 503 (with Retry-After) so a cluster router stops
// routing new traffic to this replica, while requests already in flight —
// and any that still arrive during the handoff window — are served
// normally. Call Close after the window to stop serving. Idempotent.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain or Close has begun.
func (s *Service) Draining() bool { return s.draining.Load() || s.closed.Load() }

// Close drains the service: no new lookups are admitted, and Close returns
// once every admitted one has been answered. Safe to call more than once
// and concurrently with lookups.
func (s *Service) Close() {
	s.closed.Store(true)
	// An admitted lookup is a bucket search (or a Slow test sleep) away
	// from releasing, so polling beats carrying a wake-up on the hot path.
	for s.inflight.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
}
