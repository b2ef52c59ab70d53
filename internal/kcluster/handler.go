package kcluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"dedukt/internal/obs"
)

// healthzResponse is the router's GET /healthz body.
type healthzResponse struct {
	Status     string        `json:"status"` // "ready" or "degraded"
	K          int           `json:"k"`
	Canonical  bool          `json:"canonical"`
	ShardCount int           `json:"shard_count"`
	Rebalances uint64        `json:"rebalances"`
	Replicas   []ReplicaInfo `json:"replicas"`
}

// NewHandler exposes the router over HTTP with the same client surface as
// a single kserve replica — GET /kmer/{seq}, POST /batch — plus cluster
// introspection (/healthz, /replicas, /metrics). A client pointed at a
// replica can be repointed at the proxy unchanged; batch responses gain
// the degradation contract fields (complete, errors, per-key error).
func NewHandler(r *Router) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/kmer/", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ctx, span := startProxySpan(r, req, "proxy_lookup")
		defer span.End()
		seq := strings.TrimPrefix(req.URL.Path, "/kmer/")
		res, err := r.Lookup(ctx, seq)
		if err != nil {
			span.SetAttr("error", err.Error())
			writeRouteErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("/batch", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ctx, span := startProxySpan(r, req, "proxy_batch")
		defer span.End()
		var body struct {
			Kmers []string `json:"kmers"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBatchBody)).Decode(&body); err != nil {
			http.Error(w, fmt.Sprintf("bad batch body: %v", err), http.StatusBadRequest)
			return
		}
		span.SetAttr("batch_size", strconv.Itoa(len(body.Kmers)))
		resp, err := r.Batch(ctx, body.Kmers)
		if err != nil {
			span.SetAttr("error", err.Error())
			writeRouteErr(w, err)
			return
		}
		// Degraded batches still answer 200: the contract is per-key error
		// markers plus complete=false, not an all-or-nothing failure.
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		k, canonical, shards, _ := r.reg.Shape()
		resp := healthzResponse{
			Status:     "ready",
			K:          k,
			Canonical:  canonical,
			ShardCount: shards,
			Rebalances: r.reg.Rebalances(),
			Replicas:   r.reg.Snapshot(),
		}
		code := http.StatusOK
		if !r.reg.Ready() {
			resp.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, resp)
	})

	mux.HandleFunc("/replicas", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.reg.Snapshot())
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.reg.Obs().WritePrometheus(w)
	})

	if t := r.opts.Tracer; t != nil {
		mux.Handle("/debug/trace", t.DebugHandler())
	}

	return mux
}

// startProxySpan continues (or roots) a trace for one proxied request —
// the router-admission span of the end-to-end trace. A free no-op without
// a tracer; unsampled requests keep their context unwrapped.
func startProxySpan(r *Router, req *http.Request, name string) (context.Context, obs.ReqSpanHandle) {
	ctx := req.Context()
	span := r.opts.Tracer.StartServer(req.Header, name, "http")
	if span.Sampled() {
		ctx = obs.ContextWithSpan(ctx, span.Context())
	}
	return ctx, span
}

func writeRouteErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotReady):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrShardUnavailable):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrBadQuery):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		// Everything else is an upstream failure (transport error or a
		// non-200 that survived retries).
		http.Error(w, err.Error(), http.StatusBadGateway)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
