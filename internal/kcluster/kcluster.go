// Package kcluster is the replicated serving tier over internal/kserve: a
// replica registry (static seed list, periodic /healthz probing, EWMA
// latency and inflight tracking), a shard table mapping every cluster
// shard to its routable replicas, and a front router that fans point and
// batch lookups out per shard, hedges slow requests, retries failed ones,
// and degrades to per-key error markers when a shard loses every replica.
//
// The cluster applies the paper's owner-hash partitioning to the query
// path: every key belongs to cluster shard kernels.DestOf(key, S) — the
// same hash that assigned it to a counting rank — and each shard is held
// by N kserve replicas started with `-shard s/S` over the same database
// (kserve.FilterShard). The router never stores spectrum data; it only
// knows the hash, the shard table, and the replicas' health:
//
//   - Registry probes every replica's /healthz on a fixed interval,
//     classifying it Up (200), Draining (503 with an orderly "draining"
//     body — kserve's BeginDrain handoff), or Down (consecutive hard
//     failures). Identity (replica id, shard, k, canonical) is learned
//     from the probe, so the seed list is just addresses.
//   - Every change of membership or routability publishes a new immutable
//     view (a rebalance event): the learned shape and, per shard, its
//     routable replicas — Up ahead of Draining — with a round-robin
//     cursor. A replica is an immutable index of its shard, so any Up
//     replica of a shard answers any of its keys equally well: a request
//     loads the view once and takes the shard's Up replicas rotated by the
//     cursor (primary, then hedge/retry targets), draining ones last.
//   - Router sends each lookup (or per-shard sub-batch) to the primary,
//     arms a hedge timer at a latency quantile (obs.Histogram.Quantile of
//     observed upstream latencies, clamped to [hedgeMin, HedgeMax]), and
//     fires the same idempotent request at the next candidate if the
//     timer expires first — first success wins, losers are canceled. Hard
//     failures skip the timer and retry immediately, so killing a replica
//     mid-run costs latency, not errors.
//
// cmd/kproxy wraps Router in a binary; cmd/kload (over RunLoad in this
// package) is the open-loop load harness used to prove the tier under a
// million requests, replica kills, and injected stragglers.
package kcluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State classifies a replica's routability, as learned from /healthz
// probing and request outcomes.
type State int32

const (
	// StateUnknown is a seed that has never answered a probe; not routable.
	StateUnknown State = iota
	// StateUp is a healthy, routable replica.
	StateUp
	// StateDraining is an orderly handoff: the replica answered 503 with a
	// "draining" body (kserve.BeginDrain). It still serves lookups, so it
	// stays routable — but only as a last resort.
	StateDraining
	// StateDown is a crashed or unreachable replica (consecutive probe
	// failures past the threshold); not routable.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	default:
		return "unknown"
	}
}

// Routable reports whether the router may send requests to a replica in
// this state.
func (s State) Routable() bool { return s == StateUp || s == StateDraining }

// Exported failure modes.
var (
	// ErrNotReady reports that the registry has not yet learned the cluster
	// shape (no replica has answered a probe).
	ErrNotReady = errors.New("kcluster: cluster not ready")
	// ErrShardUnavailable reports that every replica of a key's shard is
	// down — the degraded mode batch responses mark per key.
	ErrShardUnavailable = errors.New("kcluster: shard unavailable")
	// ErrBadQuery wraps client mistakes (malformed k-mer, oversized batch)
	// so the HTTP layer can answer 400 instead of 502.
	ErrBadQuery = errors.New("kcluster: bad query")
)

// ewmaAlpha is the weight of the newest latency sample in a replica's
// moving average.
const ewmaAlpha = 0.2

// Replica is one kserve process in the cluster. Addr is fixed at seed
// time; everything else is learned from probing and request outcomes.
type Replica struct {
	// Addr is the replica's host:port.
	Addr string

	mu         sync.Mutex
	id         string
	shard      int
	shardCount int
	state      State
	fails      int     // consecutive hard failures (probe or request)
	ewmaMs     float64 // moving average of successful request/probe latency
	lastErr    string

	inflight atomic.Int64 // requests currently proxied to this replica
}

// State returns the replica's current routability.
func (r *Replica) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Inflight returns how many proxied requests are outstanding.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// ID returns the replica's self-reported ID ("" until the first probe
// learns it from /healthz).
func (r *Replica) ID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.id
}

// EWMALatencyMs returns the replica's moving-average latency in
// milliseconds (0 until the first successful probe or request).
func (r *Replica) EWMALatencyMs() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ewmaMs
}

// observe folds one successful-interaction latency into the average.
func (r *Replica) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	if r.ewmaMs == 0 {
		r.ewmaMs = ms
	} else {
		r.ewmaMs = (1-ewmaAlpha)*r.ewmaMs + ewmaAlpha*ms
	}
	r.mu.Unlock()
}

// ReplicaInfo is a point-in-time snapshot of one replica, shaped for the
// router's /replicas and /healthz JSON.
type ReplicaInfo struct {
	Addr          string  `json:"addr"`
	ID            string  `json:"id,omitempty"`
	Shard         int     `json:"shard"`
	ShardCount    int     `json:"shard_count"`
	State         string  `json:"state"`
	EWMALatencyMs float64 `json:"ewma_latency_ms"`
	Inflight      int64   `json:"inflight"`
	LastError     string  `json:"last_error,omitempty"`
}

func (r *Replica) info() ReplicaInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaInfo{
		Addr:          r.Addr,
		ID:            r.id,
		Shard:         r.shard,
		ShardCount:    r.shardCount,
		State:         r.state.String(),
		EWMALatencyMs: r.ewmaMs,
		Inflight:      r.inflight.Load(),
		LastError:     r.lastErr,
	}
}

// clampDuration bounds d to [lo, hi].
func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// validateShard checks a probed (shard, shardCount) pair.
func validateShard(shard, shardCount int) error {
	if shardCount <= 0 || shard < 0 || shard >= shardCount {
		return fmt.Errorf("kcluster: replica reports shard %d/%d", shard, shardCount)
	}
	return nil
}
