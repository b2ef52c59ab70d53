package kcluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dedukt/internal/obs"
)

// RegistryOptions tunes the replica registry. The zero value (plus Seeds)
// picks sensible defaults.
type RegistryOptions struct {
	// Seeds are the replica addresses (host:port). Identity — replica id,
	// cluster shard, k, canonical — is learned by probing /healthz.
	Seeds []string
	// ProbeInterval is how often every replica is probed (default 250ms).
	ProbeInterval time.Duration
	// Obs, when non-nil, is the observability registry cluster metrics are
	// registered into; nil creates a private one.
	Obs *obs.Registry
	// Logf receives probe-state transitions (log.Printf-shaped); nil
	// discards them.
	Logf func(format string, args ...any)
}

const (
	// probeTimeout bounds one /healthz probe.
	probeTimeout = time.Second
	// failThreshold is how many consecutive hard failures (probe or proxied
	// request) mark a replica Down.
	failThreshold = 2
	// maxPointBody bounds a /healthz or /kmer answer.
	maxPointBody = 1 << 16
)

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// probeHealth mirrors kserve's /healthz body (the fields the registry
// needs; kept as a local struct so kcluster tracks the wire contract, not
// the kserve internals).
type probeHealth struct {
	Status     string `json:"status"`
	ReplicaID  string `json:"replica_id"`
	K          int    `json:"k"`
	Canonical  bool   `json:"canonical"`
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
}

// Registry tracks the cluster's replicas: it probes /healthz on a fixed
// interval, learns each replica's identity and shard, classifies
// routability (Up / Draining / Down), and publishes the routing view
// requests are served from. Every view rebuild is a rebalance event.
type Registry struct {
	opts     RegistryOptions
	met      registryMetrics
	client   *http.Client
	replicas []*Replica // fixed by NewRegistry

	view atomic.Pointer[view] // nil until the shape is known

	mu    sync.Mutex // orders shape adoption and view rebuilds
	shape shape      // shards == 0 until a replica has answered

	// probing serialises probe passes: a pass that finds no change returns
	// only after any pass before it has published what it found.
	probing sync.Mutex

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

type registryMetrics struct {
	rebalances    *obs.Counter
	probes        *obs.Counter
	probeFailures *obs.Counter
}

// NewRegistry builds a registry over the seed list and starts the probe
// loop. Call Close to stop probing; call ProbeNow to force a synchronous
// pass (startup, tests).
func NewRegistry(opts RegistryOptions) (*Registry, error) {
	opts = opts.withDefaults()
	if len(opts.Seeds) == 0 {
		return nil, fmt.Errorf("kcluster: no replica seeds")
	}
	g := &Registry{
		opts:   opts,
		client: &http.Client{Timeout: probeTimeout},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	seen := make(map[string]bool, len(opts.Seeds))
	for _, addr := range opts.Seeds {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		g.replicas = append(g.replicas, &Replica{Addr: addr})
	}
	if len(g.replicas) == 0 {
		return nil, fmt.Errorf("kcluster: no usable replica seeds in %v", opts.Seeds)
	}
	g.initMetrics()
	go g.probeLoop()
	return g, nil
}

func (g *Registry) initMetrics() {
	reg := g.opts.Obs
	g.met = registryMetrics{
		rebalances:    reg.Counter("kcluster_rebalances_total", "Routing view rebuilds caused by replica membership or routability changes."),
		probes:        reg.Counter("kcluster_probes_total", "Health probes sent."),
		probeFailures: reg.Counter("kcluster_probe_failures_total", "Health probes that failed."),
	}
	reg.Gauge("kcluster_replicas", "Replicas in the seed list.").Set(float64(len(g.replicas)))
	reg.GaugeFunc("kcluster_ready", "1 when every cluster shard has at least one Up replica.", func() float64 {
		if g.Ready() {
			return 1
		}
		return 0
	})
	for _, rep := range g.replicas {
		rep := rep
		label := obs.L("replica", rep.Addr)
		reg.GaugeFunc("kcluster_replica_up", "Replica routability: 1 up, 0.5 draining, 0 down/unknown.", func() float64 {
			switch rep.State() {
			case StateUp:
				return 1
			case StateDraining:
				return 0.5
			default:
				return 0
			}
		}, label)
		reg.GaugeFunc("kcluster_replica_inflight", "Requests currently proxied to the replica.", func() float64 {
			return float64(rep.Inflight())
		}, label)
		reg.GaugeFunc("kcluster_replica_ewma_latency_ms", "Moving-average latency of successful probes and proxied requests.", func() float64 {
			return rep.EWMALatencyMs()
		}, label)
	}
}

// Obs returns the observability registry cluster metrics live in.
func (g *Registry) Obs() *obs.Registry { return g.opts.Obs }

// Close stops the probe loop and waits for it to exit.
func (g *Registry) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
}

func (g *Registry) probeLoop() {
	defer close(g.done)
	t := time.NewTicker(g.opts.ProbeInterval)
	defer t.Stop()
	g.probeAll()
	for {
		select {
		case <-t.C:
			g.probeAll()
		case <-g.stop:
			return
		}
	}
}

// ProbeNow runs one synchronous probe pass over every replica, after any
// pass already running; the view reflects both when it returns.
func (g *Registry) ProbeNow() { g.probeAll() }

// probeAll probes every replica concurrently, then rebuilds the view if
// any routability or identity changed.
func (g *Registry) probeAll() {
	g.probing.Lock()
	defer g.probing.Unlock()
	changed := make([]bool, len(g.replicas))
	var wg sync.WaitGroup
	for i, rep := range g.replicas {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			changed[i] = g.probeOne(rep)
		}(i, rep)
	}
	wg.Wait()
	for _, c := range changed {
		if c {
			g.rebuild()
			return
		}
	}
}

// probeOne probes one replica and applies the outcome; reports whether its
// routability or shard assignment changed.
func (g *Registry) probeOne(rep *Replica) bool {
	g.met.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+rep.Addr+"/healthz", nil)
	if err != nil {
		return g.applyProbeFailure(rep, err)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return g.applyProbeFailure(rep, err)
	}
	defer resp.Body.Close()
	var h probeHealth
	decodeErr := json.NewDecoder(io.LimitReader(resp.Body, maxPointBody)).Decode(&h)
	switch {
	case resp.StatusCode == http.StatusOK && decodeErr == nil:
		rep.observe(time.Since(start))
		return g.applyProbeUp(rep, h, StateUp)
	case resp.StatusCode == http.StatusServiceUnavailable && decodeErr == nil && h.Status == "draining":
		// An orderly drain, not a crash: the replica told us so. Keep it
		// routable as a last resort and don't count strikes against it.
		rep.observe(time.Since(start))
		return g.applyProbeUp(rep, h, StateDraining)
	default:
		if decodeErr != nil {
			err = fmt.Errorf("bad healthz body: %v", decodeErr)
		} else {
			err = fmt.Errorf("healthz status %d", resp.StatusCode)
		}
		return g.applyProbeFailure(rep, err)
	}
}

// applyProbeUp records a successful probe: adopt identity, validate the
// cluster shape, clear the failure streak.
func (g *Registry) applyProbeUp(rep *Replica, h probeHealth, state State) bool {
	if err := validateShard(h.ShardIndex, h.ShardCount); err != nil {
		return g.applyProbeFailure(rep, err)
	}
	if err := g.adoptShape(h); err != nil {
		return g.applyProbeFailure(rep, err)
	}
	rep.mu.Lock()
	changed := rep.state != state || rep.shard != h.ShardIndex || rep.shardCount != h.ShardCount
	prev := rep.state
	rep.id = h.ReplicaID
	rep.shard = h.ShardIndex
	rep.shardCount = h.ShardCount
	rep.state = state
	rep.fails = 0
	rep.lastErr = ""
	rep.mu.Unlock()
	if changed {
		g.opts.Logf("replica %s (%s, shard %d/%d): %s -> %s", rep.Addr, h.ReplicaID, h.ShardIndex, h.ShardCount, prev, state)
	}
	return changed
}

// applyProbeFailure records a hard failure; the replica goes Down once the
// consecutive-failure threshold is crossed.
func (g *Registry) applyProbeFailure(rep *Replica, err error) bool {
	g.met.probeFailures.Inc()
	rep.mu.Lock()
	rep.fails++
	rep.lastErr = err.Error()
	changed := rep.fails >= failThreshold && rep.state != StateDown && rep.state != StateUnknown
	prev := rep.state
	if changed {
		rep.state = StateDown
	}
	rep.mu.Unlock()
	if changed {
		g.opts.Logf("replica %s: %s -> down (%v)", rep.Addr, prev, err)
	}
	return changed
}

// ReportFailure lets the router feed hard request failures (connection
// refused, 5xx) into the health model without waiting for the next probe
// tick — a killed replica stops receiving primary traffic after
// failThreshold failed requests instead of a probe interval later.
func (g *Registry) ReportFailure(rep *Replica, err error) {
	if g.applyProbeFailure(rep, err) {
		g.rebuild()
	}
}

// ReportSuccess folds a successful proxied-request latency into the
// replica's average and clears its failure streak.
func (g *Registry) ReportSuccess(rep *Replica, d time.Duration) {
	rep.observe(d)
	rep.mu.Lock()
	rep.fails = 0
	rep.mu.Unlock()
}

// adoptShape validates and adopts the cluster shape (k, canonical, shard
// count) learned from a replica.
func (g *Registry) adoptShape(h probeHealth) error {
	got := shape{k: h.K, canonical: h.Canonical, shards: h.ShardCount}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shape.shards == 0 {
		g.shape = got
	}
	if g.shape != got {
		return fmt.Errorf("kcluster: replica shape k=%d canonical=%v shards=%d disagrees with cluster k=%d canonical=%v shards=%d",
			got.k, got.canonical, got.shards, g.shape.k, g.shape.canonical, g.shape.shards)
	}
	return nil
}

// rebuild publishes a new view from the replicas' current states — one
// rebalance event.
func (g *Registry) rebuild() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.shape.shards == 0 {
		return
	}
	v := &view{shape: g.shape, table: make([]shardView, g.shape.shards)}
	for _, rep := range g.replicas {
		rep.mu.Lock()
		state, shard, of := rep.state, rep.shard, rep.shardCount
		rep.mu.Unlock()
		if !state.Routable() || of != g.shape.shards {
			continue
		}
		s := &v.table[shard]
		if state == StateUp {
			s.reps = slices.Insert(s.reps, s.up, rep)
			s.up++
		} else {
			s.reps = append(s.reps, rep)
		}
	}
	g.view.Store(v)
	g.met.rebalances.Inc()
}

// Shape returns the learned cluster shape. ready is false until at least
// one replica has been probed successfully.
func (g *Registry) Shape() (k int, canonical bool, shards int, ready bool) {
	v := g.view.Load()
	if v == nil {
		return 0, false, 0, false
	}
	return v.k, v.canonical, v.shards, true
}

// Ready reports whether every cluster shard has at least one Up replica.
func (g *Registry) Ready() bool {
	v := g.view.Load()
	if v == nil {
		return false
	}
	for i := range v.table {
		if v.table[i].up == 0 {
			return false
		}
	}
	return true
}

// Snapshot returns every replica's current state.
func (g *Registry) Snapshot() []ReplicaInfo {
	out := make([]ReplicaInfo, len(g.replicas))
	for i, rep := range g.replicas {
		out[i] = rep.info()
	}
	return out
}

// Rebalances returns how many view rebuilds have happened.
func (g *Registry) Rebalances() uint64 { return g.met.rebalances.Value() }
