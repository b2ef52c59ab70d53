// Package obs is the run-wide observability layer: per-rank, per-round
// phase spans and fault instants (exported as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing), a Prometheus-text-format
// metrics registry shared by every subsystem, and a human-readable run
// report (per-round load-imbalance trajectory, slowest-rank attribution,
// retry and fault tallies).
//
// The paper's evaluation is phase-resolved — Fig. 3's parse/exchange/count
// breakdown, Fig. 8's Alltoallv time, Table III's load imbalance — but
// aggregates hide the per-rank, per-round timeline where stragglers,
// retries and minimizer-induced skew actually happen. A Recorder captures
// that timeline while the run executes.
//
// A nil *Recorder is valid and free: every method nil-checks and returns
// immediately without allocating, so instrumented hot paths cost nothing
// when observability is off (verified by a zero-allocation test).
package obs

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// Phase names for the pipeline's per-round spans. Components may record
// additional phases; these are the canonical set the report understands.
const (
	PhaseParse    = "parse"           // parse & process (kernel or scalar loop)
	PhaseStageH2D = "stage_h2d"       // host→device staging of the round's reads
	PhaseExchange = "exchange"        // announce + payload Alltoallv (all attempts)
	PhaseGather   = "gather"          // hierarchical exchange: intra-node gather onto the node leader
	PhaseLeader   = "leader_alltoall" // hierarchical exchange: inter-node Alltoallv between leaders
	PhaseScatter  = "scatter"         // hierarchical exchange: intra-node scatter from the leader
	PhaseRetry    = "retry"           // one retry attempt inside an exchange
	PhaseCount    = "count"           // table insertion
	PhaseCkpt     = "checkpoint"      // persisting a round checkpoint slice
	PhaseRecovery = "recovery"        // restart after a rank death: checkpoint reload onto the survivors
	PhaseSpill    = "spill_write"     // out-of-core pass 1: appending received items to disk bins
	PhaseBinCount = "bin_count"       // out-of-core pass 2: counting one spill bin
)

// Instant event names for faults and recovery milestones.
const (
	EvKill     = "fault_kill"
	EvDelay    = "fault_delay"
	EvDrop     = "fault_drop"
	EvCorrupt  = "fault_corrupt"
	EvRetry    = "retry_round"
	EvDeadline = "deadline_hit"
	EvCkpt     = "checkpoint_round" // a round checkpoint was persisted
	EvShrink   = "shrink_recovery"  // a surviving rank restarted from the last checkpoint
)

// Span is one completed phase interval on one rank.
type Span struct {
	Rank, Round int
	Phase       string
	// Start is the offset from the recorder epoch; Dur the measured Go wall
	// time of the phase.
	Start, Dur time.Duration
	// Modeled is the Summit-projected time of the phase slice (0 when the
	// phase has no model component).
	Modeled time.Duration
	// Items is the number of items the phase handled (parsed or exchanged
	// units, counted k-mers) — count spans, or on a spill run spill spans,
	// are the per-round load the report's imbalance trajectory is computed
	// over.
	Items uint64
}

// Instant is one point event on one rank (an injected fault, a retry
// decision, a checkpoint).
type Instant struct {
	Rank, Round int
	Name        string
	At          time.Duration // offset from the recorder epoch
}

// rankShard is one rank's span/instant buffer. A rank goroutine writes its
// own shard, and a receiver also records the drop and corrupt instants of
// the frames it was sent on the sender's shard; the mutex serializes those
// writers and lets exporters read concurrently with a live run.
type rankShard struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
	label    context.Context // pprof labels: rank only
}

// Recorder captures spans, instants and metrics for one run. Create with
// NewRecorder; a nil Recorder is a valid no-op sink.
type Recorder struct {
	epoch time.Time
	reg   *Registry

	mu     sync.Mutex
	shards []*rankShard
}

// NewRecorder builds a recorder expecting the given number of ranks (more
// ranks may appear later; shards grow on demand).
func NewRecorder(ranks int) *Recorder {
	if ranks < 0 {
		ranks = 0
	}
	r := &Recorder{epoch: time.Now(), reg: NewRegistry()}
	r.shards = make([]*rankShard, 0, ranks)
	for i := 0; i < ranks; i++ {
		r.shards = append(r.shards, newShard(i))
	}
	return r
}

func newShard(rank int) *rankShard {
	return &rankShard{
		label: pprof.WithLabels(context.Background(),
			pprof.Labels("rank", strconv.Itoa(rank))),
	}
}

// Registry returns the recorder's metrics registry (nil for a nil recorder:
// callers guard metric registration behind a nil check like spans).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Epoch returns the recorder's time origin.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// shard returns rank's buffer, growing the shard table when a rank beyond
// the declared world appears.
func (r *Recorder) shard(rank int) *rankShard {
	if rank < 0 {
		rank = 0
	}
	r.mu.Lock()
	for rank >= len(r.shards) {
		r.shards = append(r.shards, newShard(len(r.shards)))
	}
	s := r.shards[rank]
	r.mu.Unlock()
	return s
}

// SpanHandle is an open span returned by Begin. It is a value type: holding
// or discarding one never allocates.
type SpanHandle struct {
	r           *Recorder
	rank, round int
	phase       string
	start       time.Time
}

// Begin opens a span for (rank, round, phase) and tags the calling
// goroutine's pprof labels with the phase, so CPU profiles attribute
// samples to (rank, phase). On a nil recorder it returns a zero handle and
// does nothing.
func (r *Recorder) Begin(rank, round int, phase string) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	sh := r.shard(rank)
	pprof.SetGoroutineLabels(pprof.WithLabels(sh.label, pprof.Labels("phase", phase)))
	return SpanHandle{r: r, rank: rank, round: round, phase: phase, start: time.Now()}
}

// End closes the span, attaching the modeled phase time and the item count.
// A zero handle (nil recorder) is a no-op.
func (h SpanHandle) End(modeled time.Duration, items uint64) {
	if h.r == nil {
		return
	}
	end := time.Now()
	sh := h.r.shard(h.rank)
	pprof.SetGoroutineLabels(sh.label)
	sp := Span{
		Rank:    h.rank,
		Round:   h.round,
		Phase:   h.phase,
		Start:   h.start.Sub(h.r.epoch),
		Dur:     end.Sub(h.start),
		Modeled: modeled,
		Items:   items,
	}
	sh.mu.Lock()
	sh.spans = append(sh.spans, sp)
	sh.mu.Unlock()
}

// Instant records a point event for (rank, round). No-op on nil.
func (r *Recorder) Instant(rank, round int, name string) {
	if r == nil {
		return
	}
	sh := r.shard(rank)
	ev := Instant{Rank: rank, Round: round, Name: name, At: time.Since(r.epoch)}
	sh.mu.Lock()
	sh.instants = append(sh.instants, ev)
	sh.mu.Unlock()
}

// Spans returns a copy of every recorded span, ordered by rank then start.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	shards := append([]*rankShard(nil), r.shards...)
	r.mu.Unlock()
	var out []Span
	for _, sh := range shards {
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// Instants returns a copy of every recorded instant, ordered by rank then
// time.
func (r *Recorder) Instants() []Instant {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	shards := append([]*rankShard(nil), r.shards...)
	r.mu.Unlock()
	var out []Instant
	for _, sh := range shards {
		sh.mu.Lock()
		out = append(out, sh.instants...)
		sh.mu.Unlock()
	}
	return out
}

// Ranks returns the number of rank shards seen so far.
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.shards)
}
