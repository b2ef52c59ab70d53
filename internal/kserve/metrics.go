package kserve

import (
	"time"

	"dedukt/internal/obs"
)

// serviceMetrics are the hot-path counters, registered in the shared
// observability registry (see initMetrics) so GET /metrics exposes them in
// Prometheus text format alongside every other subsystem.
type serviceMetrics struct {
	start    time.Time
	requests *obs.Counter // every key of every lookup the open service received
	rejected *obs.Counter // admission-control drops, one per refused request
}

// initMetrics registers the service's metric families into reg and wires
// the derived gauges (uptime, QPS, in-flight) as exposition-time functions
// over the live counters.
func (s *Service) initMetrics(reg *obs.Registry) {
	s.reg = reg
	s.met = serviceMetrics{
		start:    time.Now(),
		requests: reg.Counter("kserve_requests_total", "Lookups received (a batch counts each of its keys)."),
		rejected: reg.Counter("kserve_rejected_total", "Requests shed by admission control (HTTP 429)."),
	}
	reg.Gauge("kserve_k", "Served k-mer length.").Set(float64(s.k))
	reg.Gauge("kserve_distinct_kmers", "Distinct k-mers in the served spectrum.").Set(float64(s.Distinct()))
	reg.Gauge("kserve_index_bytes", "Bytes the served spectrum's prefix index holds.").Set(float64(s.idx.bytes()))
	reg.Gauge("kserve_cluster_shard_index", "Cluster shard of the key space this replica holds.").Set(float64(s.opts.ShardIndex))
	reg.Gauge("kserve_cluster_shard_count", "Total cluster shards the key space is split into.").Set(float64(s.opts.ShardCount))
	reg.GaugeFunc("kserve_inflight", "Admitted requests not yet answered (bounded by the -queue depth).", func() float64 {
		return float64(s.inflight.Load())
	})
	reg.GaugeFunc("kserve_draining", "1 while the service is draining (BeginDrain/Close).", func() float64 {
		if s.Draining() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("kserve_uptime_seconds", "Seconds since the service started.", func() float64 {
		return time.Since(s.met.start).Seconds()
	})
	reg.GaugeFunc("kserve_qps", "Mean lookups per second since start.", func() float64 {
		if up := time.Since(s.met.start).Seconds(); up > 0 {
			return float64(s.met.requests.Value()) / up
		}
		return 0
	})
}

// Metrics is a point-in-time snapshot of the service, shaped for JSON
// (/metrics?format=json).
type Metrics struct {
	UptimeSec     float64 `json:"uptime_sec"`
	K             int     `json:"k"`
	Canonical     bool    `json:"canonical"`
	DistinctKmers uint64  `json:"distinct_kmers"`
	Requests      uint64  `json:"requests"`
	QPS           float64 `json:"qps"`
	Rejected      uint64  `json:"rejected"`
	// CacheHits and CacheMisses are always zero: the service has no cache.
	// They remain only because bench/serving.go (the repository benchmark,
	// which this package may not edit) reads them to compute
	// kserve.cache_hit_ratio, a row it already skips when both are 0.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Metrics snapshots the service counters. Counters are read individually
// with atomic loads; the snapshot is consistent enough for monitoring, not
// a linearizable cut.
func (s *Service) Metrics() Metrics {
	up := time.Since(s.met.start).Seconds()
	m := Metrics{
		UptimeSec:     up,
		K:             s.k,
		Canonical:     s.Canonical(),
		DistinctKmers: s.Distinct(),
		Requests:      s.met.requests.Value(),
		Rejected:      s.met.rejected.Value(),
	}
	if up > 0 {
		m.QPS = float64(m.Requests) / up
	}
	return m
}
