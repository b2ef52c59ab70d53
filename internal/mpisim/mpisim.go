// Package mpisim is a bulk-synchronous message-passing simulator: the MPI
// substrate of the reproduction (see DESIGN.md, "Substitutions").
//
// Ranks run as goroutines inside one process and exchange data through
// shared memory, so payloads are moved bit-exactly; the *cost* of the
// paper's many-to-many exchanges (MPI_Alltoall + MPI_Alltoallv, Alg. 1
// line 8) is evaluated separately by a calibrated network model over the
// recorded traffic matrices (see netmodel.go).
//
// The collective semantics mirror MPI: every rank must call the same
// collectives in the same order; a collective returns only after all ranks
// have entered it. Unlike raw MPI — where one dead or stalled rank
// deadlocks the world — failures here are structured: a rank body that
// returns an error or panics poisons the communicator, unblocking every
// peer's in-flight and future collectives with ErrPeerDead; a collective
// that waits past the configured deadline poisons it with ErrDeadline.
// Run reports every rank's failure via errors.Join.
package mpisim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"dedukt/internal/obs"
)

// ErrPeerDead is wrapped by collective errors after a peer rank has failed
// (returned a non-nil error or panicked): the collective can never
// complete, so it unblocks with this instead of deadlocking.
var ErrPeerDead = errors.New("mpisim: peer rank dead")

// ErrDeadline is wrapped by collective errors when a rank waited in a
// collective past the communicator's deadline (a peer is stalled or never
// arriving). The whole world is poisoned: the collective cannot complete
// for anyone.
var ErrDeadline = errors.New("mpisim: collective deadline exceeded")

// Options configures a Run.
type Options struct {
	// Deadline bounds how long any rank may wait inside one collective for
	// its peers. 0 means wait forever (a dead peer still unblocks waiters
	// via poisoning; the deadline additionally catches live-but-stalled
	// peers). The deadline is per collective call, not per run.
	Deadline time.Duration
	// Obs, when non-nil, receives collective metrics (ops and bytes per
	// collective kind, deadline hits) in its registry and a deadline_hit
	// instant event when a collective times out.
	Obs *obs.Recorder
	// WireTime, when non-nil, emulates fabric transfer time at wall level:
	// each payload collective (Alltoallv and its nonblocking forms) returns
	// its received payloads no earlier than WireTime(b) after the collective
	// was initiated, where b is the bytes this rank ships to its peers
	// (self-delivery stays free: b == 0 charges nothing). The clock starts
	// at initiation — the blocking call or the nonblocking post — and the
	// collective sleeps only whatever remains of WireTime(b) once the
	// exchange itself is done, like an RDMA transfer that progresses while
	// the CPU computes: compute done between an IAlltoallv post and its
	// Wait genuinely overlaps the wire. A blocking caller pays the
	// remainder on the rank's own goroutine, a nonblocking post on the
	// background request. Ranks sleep concurrently, so a collective's wall
	// cost is the slowest rank's wire time, not the sum. nil means an
	// instantaneous wire (the default). The sleep happens after the barrier
	// waits and therefore never trips Deadline.
	WireTime func(sentBytes int) time.Duration
	// WireMsg, when non-nil, adds a per-message α component to the emulated
	// wire: a payload collective additionally waits WireMsg(m), where m is
	// the number of distinct off-node destinations this rank shipped payload
	// to. It composes with WireTime (the β/bandwidth component) under the
	// same clock-from-initiation rule. A flat P×P Alltoallv pays m ≈ P−1 per
	// rank; a hierarchical exchange routes everything through node leaders
	// and pays m = leaders−1 — exactly the message-count reduction the
	// two-stage exchange exists to buy.
	WireMsg func(messages int) time.Duration
	// RanksPerNode, when > 1, makes the emulated wire topology-aware: ranks
	// are grouped into nodes of RanksPerNode consecutive ranks (the last
	// node may be smaller) and payload between co-located ranks is credited
	// as intra-node traffic — the NVLink/shared-memory tier — paying no
	// WireTime and counting no WireMsg messages, mirroring how
	// NetModel.CollectiveTime excludes intra-node bytes from fabric time.
	// 0 or 1 charges every off-rank byte (the legacy flat accounting).
	RanksPerNode int
}

// Comm is one rank's handle on the communicator. It is owned by the rank's
// goroutine and is not safe for concurrent use.
type Comm struct {
	rank  int
	world *world
	// asyncTail is the completion channel of the most recently posted
	// nonblocking request: each new request waits on it, so posted
	// collectives execute strictly in posting order (the MPI nonblocking
	// ordering rule).
	asyncTail chan struct{}
	// pending counts posted-but-unwaited nonblocking requests; blocking
	// collectives refuse to start while it is nonzero (see syncReady).
	pending int
}

// world holds the shared state of one Run. A Run may pass through several
// worlds: Shrink retires a poisoned world and migrates the survivors into
// a fresh, smaller one; the trace log is shared across them so the run's
// collective history stays in one sequence.
type world struct {
	size     int
	deadline time.Duration
	obs      *obs.Recorder
	wireTime func(sentBytes int) time.Duration
	wireMsg  func(messages int) time.Duration
	topo     Topology
	tr       *traceLog

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	phase   int
	failure error // non-nil once poisoned; the reason every collective fails

	// slots carries one deposit per rank for the collective in flight.
	slots []any

	// Shrink protocol state (see Comm.Shrink): which ranks of THIS world
	// have died, and how many survivors have arrived in Shrink. The
	// protocol completes when every rank is accounted for — dead or
	// shrinking — and publishes the successor world in shrunk.
	dead      []bool
	numDead   int
	shrinkers int
	shrunk    *shrunkWorld
	shrinkErr error
}

// shrunkWorld is the successor published by a completed shrink:
// survivors[i] is the old-world rank now running as rank i of w.
type shrunkWorld struct {
	w         *world
	survivors []int
}

// traceLog accumulates the run's collective trace across worlds.
type traceLog struct {
	mu      sync.Mutex
	entries []TraceEntry
}

// TraceEntry records the traffic matrix of one collective.
type TraceEntry struct {
	// Op names the collective ("alltoallv", "alltoall", ...).
	Op string
	// Bytes[i][j] is the payload rank i sent to rank j (nil for
	// zero-payload collectives like barriers).
	Bytes [][]uint64
}

// TotalBytes sums the whole matrix.
func (e TraceEntry) TotalBytes() uint64 {
	var n uint64
	for _, row := range e.Bytes {
		for _, b := range row {
			n += b
		}
	}
	return n
}

// Run executes body once per rank on size ranks and returns after all
// complete. A rank failure (non-nil return or panic) poisons the world:
// peers blocked in or later entering a collective fail with an error
// wrapping ErrPeerDead instead of deadlocking. The returned error joins
// every rank's failure (errors.Join), each wrapped with its rank id; the
// Trace lists every completed collective's traffic matrix in program order.
func Run(size int, body func(c *Comm) error) (trace []TraceEntry, err error) {
	return RunWithOptions(size, Options{}, body)
}

// RunWithOptions is Run with collective deadlines configured.
func RunWithOptions(size int, opt Options, body func(c *Comm) error) (trace []TraceEntry, err error) {
	trace, errs, err := RunRanks(size, opt, body)
	if err != nil {
		return nil, err
	}
	var joined []error
	for r, e := range errs {
		if e != nil {
			joined = append(joined, fmt.Errorf("rank %d: %w", r, e))
		}
	}
	return trace, errors.Join(joined...)
}

// RunRanks is RunWithOptions exposing each rank's individual outcome:
// errs[r] is rank r's return (nil on success). Callers running recovery
// protocols need the split — after a shrink completes, a dead rank's
// error is expected and must not mask the survivors' success — while
// plain callers use RunWithOptions' joined form. The non-nil err return
// reports only setup failures (bad size or options), not rank failures.
func RunRanks(size int, opt Options, body func(c *Comm) error) (trace []TraceEntry, errs []error, err error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("mpisim: non-positive world size %d", size)
	}
	if opt.Deadline < 0 {
		return nil, nil, fmt.Errorf("mpisim: negative deadline %v", opt.Deadline)
	}
	w := &world{
		size: size, deadline: opt.Deadline, obs: opt.Obs, wireTime: opt.WireTime,
		wireMsg: opt.WireMsg, topo: Topology{RanksPerNode: opt.RanksPerNode},
		tr: &traceLog{}, slots: make([]any, size), dead: make([]bool, size),
	}
	w.cond = sync.NewCond(&w.mu)

	errs = make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			// The Comm outlives the body call so the defer can mark the
			// rank dead in whatever world it migrated to (see Shrink).
			c := &Comm{rank: rank, world: w}
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpisim: rank panicked: %v", p)
				}
				if errs[rank] != nil {
					// Unblock peers stuck in a collective: mark this rank
					// dead and poison its current world so their
					// collectives fail instead of deadlocking.
					c.die()
				}
			}()
			// pprof labels attribute CPU samples of large simulated worlds
			// to their rank; the obs span recorder refines the phase label
			// while phases are open.
			pprof.Do(context.Background(), pprof.Labels("rank", strconv.Itoa(rank), "phase", "rank-body"),
				func(context.Context) {
					errs[rank] = body(c)
				})
		}(r)
	}
	wg.Wait()
	return w.tr.entries, errs, nil
}

// die marks the rank dead in its current world and poisons it, waking
// both collective waiters (who fail with ErrPeerDead) and Shrink waiters
// (whose completion condition now accounts for this rank).
func (c *Comm) die() {
	w := c.world
	w.mu.Lock()
	if !w.dead[c.rank] {
		w.dead[c.rank] = true
		w.numDead++
	}
	if w.failure == nil {
		w.failure = fmt.Errorf("mpisim: rank %d dead: %w", c.rank, ErrPeerDead)
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Shrink is the collective reconfiguration protocol of a world poisoned
// by rank death (MPI-ULFM's MPI_Comm_shrink, DESIGN.md §12): every
// surviving rank calls Shrink, the protocol completes once each of the
// world's ranks is accounted for — dead (its goroutine exited) or
// arrived here — and the survivors migrate onto a fresh communicator of
// size Size()-numDead, reranked densely in old-rank order. The returned
// slice maps new rank → previous-world rank (survivors[c.Rank()] is this
// rank's old id); callers chain these mappings across repeated shrinks.
//
// Shrink refuses a healthy world and a world poisoned by anything other
// than rank death (notably ErrDeadline: the stalled rank may still be
// alive and mutating shared payloads, so shrinking would race it). It
// waits at most the communicator deadline for its peers. Nonblocking
// requests posted before the shrink belong to the retired world and must
// be abandoned, never Waited, after Shrink returns.
func (c *Comm) Shrink() (survivors []int, err error) {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failure == nil {
		return nil, fmt.Errorf("mpisim: Shrink on a healthy communicator")
	}
	if !errors.Is(w.failure, ErrPeerDead) {
		return nil, fmt.Errorf("mpisim: cannot shrink: %w", w.failure)
	}
	if w.dead[c.rank] {
		return nil, fmt.Errorf("mpisim: dead rank %d cannot shrink", c.rank)
	}
	w.shrinkers++
	if w.deadline > 0 {
		timer := time.AfterFunc(w.deadline, func() {
			w.mu.Lock()
			if w.shrunk == nil && w.shrinkErr == nil {
				w.shrinkErr = fmt.Errorf("mpisim: waited %v for survivors to shrink: %w", w.deadline, ErrDeadline)
				w.cond.Broadcast()
			}
			w.mu.Unlock()
		})
		defer timer.Stop()
	}
	for w.shrunk == nil && w.shrinkErr == nil {
		if w.shrinkers+w.numDead >= w.size {
			// Last rank accounted for: build the successor world. Peers
			// woken by the broadcast find it in w.shrunk.
			alive := make([]int, 0, w.size-w.numDead)
			for r := 0; r < w.size; r++ {
				if !w.dead[r] {
					alive = append(alive, r)
				}
			}
			nw := &world{
				size: len(alive), deadline: w.deadline, obs: w.obs,
				wireTime: w.wireTime, wireMsg: w.wireMsg, topo: w.topo,
				tr:    w.tr,
				slots: make([]any, len(alive)), dead: make([]bool, len(alive)),
			}
			nw.cond = sync.NewCond(&nw.mu)
			w.shrunk = &shrunkWorld{w: nw, survivors: alive}
			w.cond.Broadcast()
			break
		}
		w.cond.Wait()
	}
	if w.shrinkErr != nil {
		return nil, w.shrinkErr
	}
	sh := w.shrunk
	newRank := -1
	for i, o := range sh.survivors {
		if o == c.rank {
			newRank = i
			break
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("mpisim: rank %d missing from the shrunk world", c.rank)
	}
	c.world = sh.w
	c.rank = newRank
	c.pending = 0
	c.asyncTail = nil
	return append([]int(nil), sh.survivors...), nil
}

// poison marks the world failed with the given reason (first reason wins)
// and wakes every waiter.
func (w *world) poison(reason error) {
	w.mu.Lock()
	if w.failure == nil {
		w.failure = reason
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.world.size }

// syncReady guards every blocking collective: starting one while the rank
// has unwaited nonblocking requests outstanding would interleave two
// collective streams, scrambling the same-order-on-every-rank matching the
// simulator (like MPI) requires. Wait on all requests first.
func (c *Comm) syncReady() error {
	if c.pending > 0 {
		return fmt.Errorf("mpisim: rank %d: blocking collective with %d nonblocking requests outstanding (Wait first)", c.rank, c.pending)
	}
	return nil
}

// Barrier blocks until every rank has entered it, or fails with an error
// wrapping ErrPeerDead (a peer died) or ErrDeadline (the wait exceeded the
// communicator deadline).
func (c *Comm) Barrier() error {
	if err := c.syncReady(); err != nil {
		return err
	}
	return c.world.barrier(c.rank, nil)
}

// barrier blocks until every rank of the world has entered it. enter, when
// non-nil, runs under the world lock once the world is known healthy —
// never on a poisoned world (see exchange).
func (w *world) barrier(rank int, enter func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failure != nil {
		return w.failure
	}
	if enter != nil {
		enter()
	}
	w.arrived++
	if w.arrived == w.size {
		w.arrived = 0
		w.phase++
		w.cond.Broadcast()
		return nil
	}
	phase := w.phase
	// satisfied flags (under w.mu) that this waiter left the barrier, so a
	// late-firing deadline timer does not poison a completed collective.
	satisfied := false
	if w.deadline > 0 {
		timer := time.AfterFunc(w.deadline, func() {
			w.mu.Lock()
			fired := !satisfied && w.failure == nil
			if fired {
				w.failure = fmt.Errorf("mpisim: waited %v in a collective: %w", w.deadline, ErrDeadline)
				w.cond.Broadcast()
			}
			w.mu.Unlock()
			if fired && w.obs != nil {
				// The stalled peer is unknown; the instant lands on the rank
				// whose wait tripped the deadline (round unknown here: -1).
				w.obs.Instant(rank, -1, obs.EvDeadline)
				w.obs.Registry().Counter("mpisim_deadline_hits_total", "Collectives that exceeded the communicator deadline.").Inc()
			}
		})
		defer timer.Stop()
	}
	for w.phase == phase && w.failure == nil {
		w.cond.Wait()
	}
	satisfied = true
	return w.failure // nil on normal completion
}

// exchange is the generic all-to-all primitive: every rank deposits one
// value and receives everyone's deposits (including its own). Two barriers
// delimit the deposit and collection phases so slots can be reused by the
// next collective.
//
// The deposit happens inside the first barrier, under the world lock and
// only while the world is healthy: poisoning releases ranks from barriers
// early, and a rank that bailed out of the second barrier must not deposit
// for its next collective while a slower peer is still collecting this one.
func exchange[T any](c *Comm, v T) ([]T, error) {
	w := c.world
	if err := w.barrier(c.rank, func() { w.slots[c.rank] = v }); err != nil {
		return nil, err
	}
	out := make([]T, w.size)
	for i, s := range w.slots {
		out[i] = s.(T)
	}
	if err := w.barrier(c.rank, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// record appends a trace entry exactly once per collective (rank 0 builds
// the P×P traffic matrix from cell and writes it) and, when a recorder is
// attached, publishes per-op collective metrics.
func (c *Comm) record(op string, cell func(i, j int) uint64) {
	if c.rank != 0 {
		return
	}
	w := c.world
	e := TraceEntry{Op: op, Bytes: make([][]uint64, w.size)}
	for i := range e.Bytes {
		e.Bytes[i] = make([]uint64, w.size)
		for j := range e.Bytes[i] {
			e.Bytes[i][j] = cell(i, j)
		}
	}
	w.tr.mu.Lock()
	w.tr.entries = append(w.tr.entries, e)
	w.tr.mu.Unlock()
	if w.obs != nil {
		reg := w.obs.Registry()
		reg.Counter("mpisim_collectives_total", "Completed collectives by kind.", obs.L("op", op)).Inc()
		reg.Counter("mpisim_collective_bytes_total", "Payload bytes moved by collectives, by kind.", obs.L("op", op)).Add(e.TotalBytes())
	}
}

// Alltoall exchanges one int per destination: rank i's send[j] arrives as
// the returned recv[i] on rank j. This is the count exchange that precedes
// every Alltoallv (MPI_Alltoall in Alg. 1).
func (c *Comm) Alltoall(send []int) ([]int, error) {
	if err := c.checkLen(len(send)); err != nil {
		return nil, err
	}
	if err := c.syncReady(); err != nil {
		return nil, err
	}
	return c.alltoall(append([]int(nil), send...))
}

// alltoall is the unchecked implementation; it owns send (callers copy when
// the caller may still mutate the slice).
func (c *Comm) alltoall(send []int) ([]int, error) {
	all, err := exchange(c, send)
	if err != nil {
		return nil, err
	}
	recv := make([]int, c.Size())
	for i, row := range all {
		recv[i] = row[c.rank]
	}
	c.record("alltoall", func(i, j int) uint64 { return 8 }) // one count word per pair
	return recv, nil
}

// Unit is the element type of a variable-size payload collective: bytes
// (supermer wire images) or 64-bit words (packed k-mers). The payload
// collectives are generic functions over it — Go methods cannot take type
// parameters — so a payload of any other type is a compile error.
type Unit interface{ byte | uint64 }

// UnitBytes is the wire size of one payload unit: 1 or 8.
func UnitBytes[T Unit]() int { return bits.Len64(uint64(^T(0))) / 8 }

// Alltoallv performs the variable-size many-to-many exchange (MPI_Alltoallv
// in Alg. 1): send[j] goes to rank j; recv[i] is the payload from rank i.
// Payloads are referenced, not copied — receivers must not mutate them.
func Alltoallv[T Unit](c *Comm, send [][]T) ([][]T, error) {
	if err := c.checkLen(len(send)); err != nil {
		return nil, err
	}
	if err := c.syncReady(); err != nil {
		return nil, err
	}
	return alltoallv(c, send, c.wireClock())
}

// AlltoallvBytes forwards to Alltoallv for the separately built bench/ module.
func (c *Comm) AlltoallvBytes(send [][]byte) ([][]byte, error) { return Alltoallv(c, send) }

// wire pays whatever remains of the emulated wall-level wire time for a
// payload this rank sends off-node: WireTime(bytes) for the bandwidth
// component plus WireMsg(msgs) for the per-destination α component
// (self-delivery — and, with Options.RanksPerNode set, delivery to
// co-located ranks — is an intra-node copy and stays free). The clock
// starts at `posted` — the moment the collective was initiated — because
// the emulated fabric moves data without the CPU, like RDMA: wall time the
// caller spent computing (or starved of the scheduler) since initiation
// already counts toward the transfer.
func (c *Comm) wire(sentBytes, msgs int, posted time.Time) {
	w := c.world
	if (w.wireTime == nil && w.wireMsg == nil) || sentBytes == 0 {
		return // nothing left the node: the fabric (and its latency floor) is not involved
	}
	var d time.Duration
	if w.wireTime != nil {
		d += w.wireTime(sentBytes)
	}
	if w.wireMsg != nil && msgs > 0 {
		d += w.wireMsg(msgs)
	}
	if d -= time.Since(posted); d > 0 {
		time.Sleep(d)
	}
}

// wireClock timestamps a payload collective's initiation; it is zero-cost
// when no wire model is configured.
func (c *Comm) wireClock() (t time.Time) {
	if c.world.wireTime != nil || c.world.wireMsg != nil {
		t = time.Now()
	}
	return t
}

// sentOffNode tallies the bytes and distinct destinations of the rows a
// rank ships across the fabric: rows to itself — and, under a node-aware
// topology, to co-located ranks — are intra-node copies and count nothing.
func sentOffNode[T Unit](c *Comm, send [][]T) (sent, msgs int) {
	topo := c.world.topo
	for i, p := range send {
		if len(p) == 0 || i == c.rank || topo.SameNode(i, c.rank) {
			continue
		}
		sent += UnitBytes[T]() * len(p)
		msgs++
	}
	return sent, msgs
}

// alltoallv is the unchecked implementation shared by the blocking and
// nonblocking forms; posted is the collective's initiation time (see wire).
func alltoallv[T Unit](c *Comm, send [][]T, posted time.Time) ([][]T, error) {
	sent, msgs := sentOffNode(c, send)
	all, err := exchange(c, send)
	if err != nil {
		return nil, err
	}
	c.wire(sent, msgs, posted)
	recordMatrix(c, "alltoallv", all)
	return column(c, all), nil
}

// column extracts this rank's receive vector from the deposited send
// vectors: recv[i] is what rank i addressed to this rank.
func column[T any](c *Comm, all [][][]T) [][]T {
	recv := make([][]T, c.Size())
	for i, row := range all {
		recv[i] = row[c.rank]
	}
	return recv
}

// recordMatrix traces a payload collective: entry [i][j] is the wire size
// of what rank i sent to rank j.
func recordMatrix[T Unit](c *Comm, op string, all [][][]T) {
	width := uint64(UnitBytes[T]())
	c.record(op, func(i, j int) uint64 { return width * uint64(len(all[i][j])) })
}

// AllreduceSum returns the sum of v across ranks.
func (c *Comm) AllreduceSum(v uint64) (uint64, error) {
	return c.allreduce(v, func(acc, x uint64) uint64 { return acc + x })
}

// AllreduceMax returns the max of v across ranks.
func (c *Comm) AllreduceMax(v uint64) (uint64, error) {
	return c.allreduce(v, func(acc, x uint64) uint64 { return max(acc, x) })
}

// AllreduceOr returns the bitwise OR of v across ranks. The recovery
// layer agrees on dead-rank sets with it: each survivor contributes a bit
// mask of the deaths it observed, and the OR is the union — which max or
// sum cannot express when observations differ.
func (c *Comm) AllreduceOr(v uint64) (uint64, error) {
	return c.allreduce(v, func(acc, x uint64) uint64 { return acc | x })
}

// allreduce folds every rank's v, starting from zero (the identity of all
// three reductions over uint64).
func (c *Comm) allreduce(v uint64, fold func(acc, x uint64) uint64) (uint64, error) {
	if err := c.syncReady(); err != nil {
		return 0, err
	}
	all, err := exchange(c, v)
	if err != nil {
		return 0, err
	}
	var acc uint64
	for _, x := range all {
		acc = fold(acc, x)
	}
	return acc, nil
}

// GatherUint64 returns every rank's value, indexed by rank (available on
// all ranks — an allgather; the paper's reporting needs no rooted gather).
func (c *Comm) GatherUint64(v uint64) ([]uint64, error) {
	if err := c.syncReady(); err != nil {
		return nil, err
	}
	return exchange(c, v)
}

func (c *Comm) checkLen(n int) error {
	if n != c.Size() {
		return fmt.Errorf("mpisim: send vector length %d != world size %d", n, c.Size())
	}
	return nil
}

// ---- Nonblocking collectives ------------------------------------------------
//
// IAlltoall / IAlltoallv post a collective and return immediately with a
// Request; the exchange runs on a background goroutine while the posting rank
// keeps computing (the overlap the paper's communication-bound rounds leave on
// the table). As in MPI:
//
//   - posted requests on one rank complete in posting order (each request's
//     goroutine waits for the previous one), so the same-collective-order rule
//     still holds across ranks as long as every rank posts in the same order;
//   - vector payloads are referenced, not copied — the sender must not mutate
//     them until Wait returns (IAlltoall copies its small count vector at post
//     time, so that buffer may be reused immediately);
//   - blocking collectives may not be issued while requests are outstanding
//     (syncReady); Wait every request first.
//
// Poisoning composes: a background collective that fails with ErrPeerDead or
// ErrDeadline delivers that error from Wait.

type asyncResult[T any] struct {
	v   T
	err error
}

// Request is a posted nonblocking collective. Wait blocks until it completes
// and returns its result; calling Wait again returns the same result. A
// Request must be waited by the rank that posted it.
type Request[T any] struct {
	c *Comm
	// at freezes the posting rank's world and rank at post time: the request
	// runs there even if it only starts after a Shrink moved c elsewhere.
	at   Comm
	ch   chan asyncResult[T]
	done bool
	v    T
	err  error
}

// Wait blocks until the posted collective completes and returns its result.
// Idempotent: later calls return the cached result.
func (r *Request[T]) Wait() (T, error) {
	if !r.done {
		res := <-r.ch
		r.done = true
		r.v, r.err = res.v, res.err
		r.c.pending--
	}
	return r.v, r.err
}

// post starts op on a background goroutine chained after the rank's previous
// nonblocking request, preserving posting order. The result channel is
// buffered so the goroutine never leaks even if Wait is never called (e.g.
// the world was poisoned and the rank body bailed out).
//
// Posting yields to the scheduler before returning. On a real machine the
// NIC picks up a posted isend immediately; with fewer cores than ranks the
// Go scheduler would otherwise run each rank's post only at the start of
// that rank's next CPU slice, staggering the ranks' wire clocks by up to a
// full round of compute and charging that stagger to whichever collective
// synchronizes next. The yield lets every runnable rank reach its post (and
// every posted collective's goroutine start) before compute resumes.
func post[T any](c *Comm, op func(at *Comm) (T, error)) *Request[T] {
	r := &Request[T]{c: c, at: Comm{rank: c.rank, world: c.world}, ch: make(chan asyncResult[T], 1)}
	prev := c.asyncTail
	done := make(chan struct{})
	c.asyncTail = done
	c.pending++
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		v, err := op(&r.at)
		r.ch <- asyncResult[T]{v, err}
	}()
	runtime.Gosched()
	return r
}

// postErr wraps an immediate validation failure in an already-completed
// Request so callers have a single error path (through Wait).
func postErr[T any](c *Comm, err error) *Request[T] {
	r := &Request[T]{c: c, ch: make(chan asyncResult[T], 1)}
	c.pending++
	var zero T
	r.ch <- asyncResult[T]{zero, err}
	return r
}

// IAlltoall posts the count exchange. The send vector is copied at post time,
// so the caller may reuse it immediately.
func (c *Comm) IAlltoall(send []int) *Request[[]int] {
	if err := c.checkLen(len(send)); err != nil {
		return postErr[[]int](c, err)
	}
	owned := append([]int(nil), send...)
	return post(c, func(at *Comm) ([]int, error) { return at.alltoall(owned) })
}

// IAlltoallv posts the payload exchange. Payloads are referenced: the caller
// must not mutate send or its rows until Wait returns.
func IAlltoallv[T Unit](c *Comm, send [][]T) *Request[[][]T] {
	if err := c.checkLen(len(send)); err != nil {
		return postErr[[][]T](c, err)
	}
	posted := c.wireClock()
	return post(c, func(at *Comm) ([][]T, error) { return alltoallv(at, send, posted) })
}

// IAlltoallvBytes forwards to IAlltoallv for the separately built bench/ module.
func (c *Comm) IAlltoallvBytes(send [][]byte) *Request[[][]byte] { return IAlltoallv(c, send) }
