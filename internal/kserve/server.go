package kserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
)

// maxBatchBody bounds a /batch request body; maxBatchKmers bounds how many
// k-mers one batch may carry. Both protect the admission path from a single
// oversized request. readHeaderTimeout bounds how long a connection may take
// to deliver its request headers: admission control only sees a request once
// it is parsed, so without it a client that never finishes its headers would
// hold a connection and a goroutine forever.
const (
	maxBatchBody      = 4 << 20
	maxBatchKmers     = 8192
	readHeaderTimeout = 5 * time.Second
)

// KmerResult is one point-lookup answer.
type KmerResult struct {
	Kmer    string `json:"kmer"`
	Count   uint32 `json:"count"`
	Present bool   `json:"present"`
}

// batchRequest is the POST /batch body.
type batchRequest struct {
	Kmers []string `json:"kmers"`
}

// batchResponse is the POST /batch answer, results index-aligned with the
// request.
type batchResponse struct {
	Results []KmerResult `json:"results"`
}

// histogramResponse is the GET /histogram answer.
type histogramResponse struct {
	K          int               `json:"k"`
	Canonical  bool              `json:"canonical"`
	Distinct   uint64            `json:"distinct"`
	Total      uint64            `json:"total"`
	Singletons uint64            `json:"singletons"`
	Classes    map[uint32]uint64 `json:"classes"`
}

// topNResponse is the GET /topn answer.
type topNResponse struct {
	N     int          `json:"n"`
	Kmers []KmerResult `json:"kmers"`
}

// healthResponse is the GET /healthz answer. ReplicaID, ShardIndex and
// ShardCount identify this process within a replicated cluster (see
// internal/kcluster): the kproxy registry probes /healthz and uses them to
// build its routing rings, and Canonical/K let the router pack queries the
// same way the replica does.
type healthResponse struct {
	Status     string `json:"status"`
	ReplicaID  string `json:"replica_id,omitempty"`
	K          int    `json:"k"`
	Canonical  bool   `json:"canonical"`
	Distinct   uint64 `json:"distinct"`
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
}

// NewHandler builds the HTTP surface over svc:
//
//	GET  /kmer/{seq}  point lookup (ASCII k-mer)
//	POST /batch       bulk lookup {"kmers": ["ACGT…", …]}
//	GET  /histogram   frequency spectrum
//	GET  /topn?n=10   most frequent k-mers (precomputed horizon)
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text exposition (?format=json for the
//	                  legacy Metrics snapshot)
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /kmer/{seq}", func(w http.ResponseWriter, r *http.Request) {
		// One span covers the whole request: the lookup under it is a direct
		// read with no stage of its own to attribute.
		span := svc.opts.Tracer.StartServer(r.Header, "kserve_lookup", "http")
		defer span.End()
		seq := r.PathValue("seq")
		count, err := svc.Lookup(r.Context(), seq)
		if err != nil {
			span.SetAttr("error", err.Error())
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, KmerResult{Kmer: seq, Count: count, Present: count > 0})
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		span := svc.opts.Tracer.StartServer(r.Header, "kserve_batch", "http")
		defer span.End()
		var req batchRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
		if err := dec.Decode(&req); err != nil {
			writeErr(w, fmt.Errorf("%w: %v", errBadRequest, err))
			return
		}
		if len(req.Kmers) > maxBatchKmers {
			writeErr(w, fmt.Errorf("%w: batch of %d exceeds %d", errBadRequest, len(req.Kmers), maxBatchKmers))
			return
		}
		bb := batchBufPool.Get().(*batchBuffers)
		defer func() { batchBufPool.Put(bb) }()
		keys := bb.keys[:0]
		for i, q := range req.Kmers {
			key, err := svc.ParseQuery(q)
			if err != nil {
				writeErr(w, fmt.Errorf("%w: kmer %d: %v", errBadRequest, i, err))
				bb.keys = keys
				return
			}
			keys = append(keys, key)
		}
		if cap(bb.counts) < len(keys) {
			bb.counts = make([]uint32, len(keys))
		}
		counts := bb.counts[:len(keys)]
		span.SetAttr("batch_size", strconv.Itoa(len(keys)))
		if err := svc.LookupKeysInto(r.Context(), keys, counts); err != nil {
			span.SetAttr("error", err.Error())
			writeErr(w, err)
			bb.keys = keys
			return
		}
		results := bb.results[:0]
		for i, c := range counts {
			results = append(results, KmerResult{Kmer: req.Kmers[i], Count: c, Present: c > 0})
		}
		writeJSON(w, http.StatusOK, batchResponse{Results: results})
		bb.keys, bb.results = keys, results
	})
	mux.HandleFunc("GET /histogram", func(w http.ResponseWriter, r *http.Request) {
		h := svc.Histogram()
		writeJSON(w, http.StatusOK, histogramResponse{
			K: svc.K(), Canonical: svc.Canonical(),
			Distinct: h.Distinct(), Total: h.Total(), Singletons: h.Singletons(),
			Classes: h.Counts,
		})
	})
	mux.HandleFunc("GET /topn", func(w http.ResponseWriter, r *http.Request) {
		n := 10
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				writeErr(w, fmt.Errorf("%w: bad n %q", errBadRequest, q))
				return
			}
			n = v
		}
		top := svc.Top(n)
		resp := topNResponse{N: len(top), Kmers: make([]KmerResult, len(top))}
		for i, kv := range top {
			resp.Kmers[i] = KmerResult{
				Kmer:    dna.Kmer(kv.Key).String(svc.opts.Enc, svc.K()),
				Count:   kv.Count,
				Present: true,
			}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status, code := "ok", http.StatusOK
		if svc.Draining() {
			status, code = "draining", http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, code, healthResponse{
			Status: status, ReplicaID: svc.opts.ReplicaID,
			K: svc.K(), Canonical: svc.Canonical(),
			Distinct:   svc.Distinct(),
			ShardIndex: svc.opts.ShardIndex, ShardCount: svc.opts.ShardCount,
		})
	})
	if t := svc.opts.Tracer; t != nil {
		mux.Handle("GET /debug/trace", t.DebugHandler())
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" ||
			r.Header.Get("Accept") == "application/json" {
			writeJSON(w, http.StatusOK, svc.Metrics())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = svc.Registry().WritePrometheus(w)
	})
	return mux
}

// errBadRequest tags client errors the generic mapper should turn into 400.
var errBadRequest = errors.New("bad request")

// writeErr maps service errors onto HTTP statuses: overload → 429 (with
// Retry-After), draining/closed → 503 (with Retry-After, so a router can
// tell an orderly drain from a crashed peer and back off instead of
// blacklisting), malformed queries → 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// batchBuffers are the pooled per-request scratch slices of the /batch
// handler — parsed keys, resolved counts, rendered results — so steady
// batch traffic reuses them instead of reallocating three slices per hit.
type batchBuffers struct {
	keys    []uint64
	counts  []uint32
	results []KmerResult
}

var batchBufPool = sync.Pool{New: func() any { return new(batchBuffers) }}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// newHTTPServer is the http.Server ServeUntilInterrupt runs: the service's
// handler behind the header-read deadline.
func newHTTPServer(svc *Service) *http.Server {
	return &http.Server{Handler: NewHandler(svc), ReadHeaderTimeout: readHeaderTimeout}
}

// ServeUntilInterrupt listens on addr (host:port; port 0 picks a free one),
// serves the service's HTTP API, and blocks until SIGINT/SIGTERM, then
// drains in two steps: BeginDrain flips /healthz to 503 "draining" and —
// after Options.DrainGrace, the handoff window in which a cluster router
// (cmd/kproxy) observes the drain and moves traffic to the shard's other
// replicas — in-flight HTTP requests get shutdownGrace to finish and Close
// waits out the lookups still admitted. logf receives progress lines
// (log.Printf-shaped); the bound address is always announced as
// "listening on <addr>" so callers and scripts can discover dynamic ports.
func ServeUntilInterrupt(addr string, svc *Service, logf func(format string, args ...any)) error {
	const shutdownGrace = 10 * time.Second
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logf("listening on %s", ln.Addr())
	srv := newHTTPServer(svc)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		svc.Close()
		return err
	case got := <-sig:
		svc.BeginDrain()
		if grace := svc.opts.DrainGrace; grace > 0 {
			logf("caught %s, draining (handoff window %s)", got, grace)
			select {
			case <-time.After(grace):
			case err := <-errc:
				svc.Close()
				return err
			}
		} else {
			logf("caught %s, draining", got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := srv.Shutdown(ctx)
		svc.Close()
		logf("drained")
		return err
	}
}

// FilterShard returns the slice of db owned by cluster shard idx of n —
// the keys whose exchange owner hash kernels.DestOf(key, n) equals idx,
// exactly the keys rank idx of an n-rank pipeline would have counted. A
// replicated cluster starts n kserve processes per replica set, each with
// `-shard idx/n` over the same full database, and lets cmd/kproxy route
// keys by the same hash. n == 1 returns db unchanged.
func FilterShard(db *kcount.Database, idx, n int) (*kcount.Database, error) {
	if db == nil {
		return nil, fmt.Errorf("kserve: nil database")
	}
	if n <= 0 || idx < 0 || idx >= n {
		return nil, fmt.Errorf("kserve: shard %d/%d out of range", idx, n)
	}
	if n == 1 {
		return db, nil
	}
	// Two passes — count, then fill an exactly sized slice — instead of
	// growing by append: a replica holds this slice for its lifetime.
	owned := 0
	for _, e := range db.Entries {
		if kernels.DestOf(e.Key, n) == idx {
			owned++
		}
	}
	out := &kcount.Database{K: db.K, Flags: db.Flags, Entries: make([]kcount.KV, 0, owned)}
	for _, e := range db.Entries {
		if kernels.DestOf(e.Key, n) == idx {
			out.Entries = append(out.Entries, e)
		}
	}
	return out, nil
}

// LoadDatabases reads and unions one or more KCD files into a single
// database (they must agree on k and flags) — the multi-file load path of
// cmd/kserve, separated for testing.
func LoadDatabases(paths []string) (*kcount.Database, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("kserve: no databases given")
	}
	var merged *kcount.Database
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		d, err := kcount.ReadDatabase(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if merged == nil {
			merged = d
			continue
		}
		merged, err = kcount.Union(merged, d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return merged, nil
}
