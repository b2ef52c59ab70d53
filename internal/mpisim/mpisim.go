// Package mpisim is a bulk-synchronous message-passing simulator: the MPI
// substrate of the reproduction (see DESIGN.md, "Substitutions").
//
// Ranks run as goroutines inside one process and exchange data through
// shared memory, so payloads are moved bit-exactly; the *cost* of the
// paper's many-to-many exchanges (MPI_Alltoall + MPI_Alltoallv, Alg. 1
// line 8) is evaluated separately by a calibrated network model. Each
// collective is folded, as it completes, into the four numbers that model
// reads (TraceEntry); no traffic matrix is ever kept (see netmodel.go).
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
	// RanksPerNode groups ranks into nodes (Topology) when each
	// collective's traffic is folded into its TraceEntry: bytes between
	// ranks of one node are not fabric traffic. 0 or 1 puts every rank on
	// its own node; a negative value is refused.
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

// world holds the shared state of one Run.
type world struct {
	size     int
	topo     Topology // groups ranks into nodes for the fold (see transpose)
	deadline time.Duration
	obs      *obs.Recorder

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	phase   int
	failure error // non-nil once poisoned; the reason every collective fails

	// slots carries one deposit per rank for the collective in flight.
	slots []any
	// trace lists every completed collective, appended under mu.
	trace []TraceEntry
}

// TraceEntry is one completed collective, folded under the world's
// Topology into what NetModel.CollectiveTime reads.
type TraceEntry struct {
	// Op names the collective ("alltoallv", "alltoall", ...).
	Op string
	// Volume is the collective's traffic: all of it, the fabric part, and
	// the busiest node's max(in, out) fabric bytes.
	Volume VolumeStats
	// FabricRanks counts the ranks that sent or received any fabric byte.
	FabricRanks int
	// NodeBytes is each node's max(in, out) fabric bytes, a ragged last
	// node's included; Volume.MaxNodeBytes is the largest. Ranks is the
	// size of the world the collective ran on, which fixes each node's
	// members (Topology.LeaderRouted reads both).
	NodeBytes []uint64
	Ranks     int
}

// VolumeStats summarizes one collective's traffic, or a run's.
type VolumeStats struct {
	// TotalBytes is all payload, intra-node traffic and self-sends included.
	TotalBytes uint64
	// FabricBytes excludes intra-node traffic.
	FabricBytes uint64
	// MaxNodeBytes is the busiest node's max(in, out) fabric traffic.
	MaxNodeBytes uint64
}

// fold accumulates one collective's traffic, one (sender, receiver) pair at
// a time, into its TraceEntry.
type fold struct {
	topo    Topology
	e       TraceEntry
	in, out []uint64 // fabric bytes per node
	active  []bool   // per rank: any fabric byte sent or received
}

// newFold starts the fold of one collective, op, on a size-rank world.
func newFold(op string, topo Topology, size int) *fold {
	nodes := topo.Nodes(size)
	return &fold{topo: topo, e: TraceEntry{Op: op, Ranks: size},
		in: make([]uint64, nodes), out: make([]uint64, nodes), active: make([]bool, size)}
}

// add counts b bytes sent from rank i to rank j.
func (f *fold) add(i, j int, b uint64) {
	f.e.Volume.TotalBytes += b
	ni, nj := f.topo.NodeOf(i), f.topo.NodeOf(j)
	if b == 0 || ni == nj {
		return
	}
	f.e.Volume.FabricBytes += b
	f.out[ni] += b
	f.in[nj] += b
	f.active[i], f.active[j] = true, true
}

// entry returns the folded collective.
func (f *fold) entry() TraceEntry {
	for n, in := range f.in {
		f.out[n] = max(f.out[n], in)
		f.e.Volume.MaxNodeBytes = max(f.e.Volume.MaxNodeBytes, f.out[n])
	}
	f.e.NodeBytes = f.out
	for _, a := range f.active {
		if a {
			f.e.FabricRanks++
		}
	}
	return f.e
}

// Run executes body once per rank on size ranks and returns after all
// complete. A rank failure (non-nil return or panic) poisons the world:
// peers blocked in or later entering a collective fail with an error
// wrapping ErrPeerDead instead of deadlocking. The returned error joins
// every rank's failure (errors.Join), each wrapped with its rank id; the
// trace lists every completed collective, folded, in program order.
func Run(size int, body func(c *Comm) error) (trace []TraceEntry, err error) {
	return RunWithOptions(size, Options{}, body)
}

// RunWithOptions is Run with collective deadlines and node width configured.
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
// errs[r] is rank r's return (nil on success). The pipeline needs the
// split to decide whether a failed world may restart on its survivors —
// only when every failure is a rank death (see ErrPeerDead) — while plain
// callers use RunWithOptions' joined form. Every rank's goroutine has
// returned when RunRanks does. The non-nil err return reports only setup
// failures (bad size or options), not rank failures.
func RunRanks(size int, opt Options, body func(c *Comm) error) (trace []TraceEntry, errs []error, err error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("mpisim: non-positive world size %d", size)
	}
	if opt.Deadline < 0 {
		return nil, nil, fmt.Errorf("mpisim: negative deadline %v", opt.Deadline)
	}
	if opt.RanksPerNode < 0 {
		return nil, nil, fmt.Errorf("mpisim: negative ranks per node %d", opt.RanksPerNode)
	}
	w := &world{size: size, topo: Topology{RanksPerNode: opt.RanksPerNode}, deadline: opt.Deadline, obs: opt.Obs, slots: make([]any, size)}
	w.cond = sync.NewCond(&w.mu)

	errs = make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpisim: rank panicked: %v", p)
				}
				if errs[rank] != nil {
					// Unblock peers stuck in a collective: poison the
					// world so their collectives fail instead of
					// deadlocking.
					w.poison(fmt.Errorf("mpisim: rank %d dead: %w", rank, ErrPeerDead))
				}
			}()
			// pprof labels attribute CPU samples of large simulated worlds
			// to their rank; the obs span recorder refines the phase label
			// while phases are open.
			pprof.Do(context.Background(), pprof.Labels("rank", strconv.Itoa(rank), "phase", "rank-body"),
				func(context.Context) {
					errs[rank] = body(&Comm{rank: rank, world: w})
				})
		}(r)
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.trace, errs, nil
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
	if w.phase != phase {
		// Every rank arrived: the barrier completed, whatever failed
		// before this waiter woke.
		return nil
	}
	return w.failure
}

// exchange is the generic all-to-all primitive: every rank deposits one
// value, then read runs on every rank over all P deposits (its own
// included), in place. Two barriers delimit the deposit and read phases so
// slots can be reused by the next collective.
//
// The deposit happens inside the first barrier, under the world lock and
// only while the world is healthy: poisoning releases ranks from barriers
// early, and a rank that bailed out of the second barrier must not deposit
// for its next collective while a slower peer is still reading this one.
func exchange(c *Comm, v any, read func(slots []any)) error {
	w := c.world
	if err := w.barrier(c.rank, func() { w.slots[c.rank] = v }); err != nil {
		return err
	}
	read(w.slots)
	return w.barrier(c.rank, nil)
}

// transpose is the traced all-to-all of send vectors: send[j] goes to rank
// j, and recv[i] is what rank i addressed to this rank, read in place. Rank
// 0 folds the deposits (size(x) is the wire size of entry x) into the
// collective's TraceEntry while every deposit is still in its slot, and
// appends it once the collective has completed; when a recorder is
// attached it also publishes per-op collective metrics.
func transpose[S any](c *Comm, op string, send []S, size func(S) uint64) ([]S, error) {
	w := c.world
	recv := make([]S, w.size)
	var f *fold
	err := exchange(c, send, func(slots []any) {
		for i, s := range slots {
			recv[i] = s.([]S)[c.rank]
		}
		if c.rank == 0 {
			f = newFold(op, w.topo, w.size)
			for i, s := range slots {
				for j, x := range s.([]S) {
					f.add(i, j, size(x))
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if f != nil {
		e := f.entry()
		w.mu.Lock()
		w.trace = append(w.trace, e)
		w.mu.Unlock()
		if w.obs != nil {
			reg := w.obs.Registry()
			reg.Counter("mpisim_collectives_total", "Completed collectives by kind.", obs.L("op", op)).Inc()
			reg.Counter("mpisim_collective_bytes_total", "Payload bytes moved by collectives, by kind.", obs.L("op", op)).Add(e.Volume.TotalBytes)
		}
	}
	return recv, nil
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
	// Peers read the deposit in place: the copy leaves the caller free to
	// reuse send once Alltoall returns.
	return transpose(c, "alltoall", append([]int(nil), send...), func(int) uint64 { return 8 }) // one count word per pair
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
	return blockingAlltoallv(c, "alltoallv", send)
}

// AlltoallvRetry is Alltoallv traced as "alltoallv_retry": a payload
// exchange shipped again because an earlier attempt lost frames. The trace
// keeps it apart from the attempt it repeats, so a model can price the
// first attempt alone.
func AlltoallvRetry[T Unit](c *Comm, send [][]T) ([][]T, error) {
	return blockingAlltoallv(c, "alltoallv_retry", send)
}

// blockingAlltoallv checks and runs a blocking Alltoallv traced as op.
func blockingAlltoallv[T Unit](c *Comm, op string, send [][]T) ([][]T, error) {
	if err := c.checkLen(len(send)); err != nil {
		return nil, err
	}
	if err := c.syncReady(); err != nil {
		return nil, err
	}
	return alltoallv(c, op, send)
}

// AlltoallvBytes forwards to Alltoallv for the separately built bench/ module.
func (c *Comm) AlltoallvBytes(send [][]byte) ([][]byte, error) { return Alltoallv(c, send) }

// alltoallv is the unchecked implementation shared by the blocking and
// nonblocking forms and the node tier; op names its trace entry.
func alltoallv[T Unit](c *Comm, op string, send [][]T) ([][]T, error) {
	width := uint64(UnitBytes[T]())
	return transpose(c, op, send, func(p []T) uint64 { return width * uint64(len(p)) })
}

// AllreduceSum returns the sum of v across ranks.
func (c *Comm) AllreduceSum(v uint64) (uint64, error) {
	if err := c.syncReady(); err != nil {
		return 0, err
	}
	var sum uint64
	err := exchange(c, v, func(slots []any) {
		for _, x := range slots {
			sum += x.(uint64)
		}
	})
	if err != nil {
		return 0, err
	}
	return sum, nil
}

func (c *Comm) checkLen(n int) error {
	if n != c.Size() {
		return fmt.Errorf("mpisim: send vector length %d != world size %d", n, c.Size())
	}
	return nil
}

// ---- Nonblocking collectives ------------------------------------------------
//
// IAlltoallv posts the payload exchange and returns immediately with a
// Request; the exchange runs on a background goroutine while the posting rank
// keeps computing. The pipeline runs its rounds bulk-synchronously and never
// posts one; the benchmark module's ialltoallv probe does. As in MPI:
//
//   - posted requests on one rank complete in posting order (each request's
//     goroutine waits for the previous one), so the same-collective-order rule
//     still holds across ranks as long as every rank posts in the same order;
//   - payloads are referenced, not copied — the sender must not mutate them
//     until Wait returns;
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
	c    *Comm
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
// the world was poisoned and the rank body bailed out). op may read the
// posting Comm's rank and world, which never change, but not its request
// bookkeeping, which the rank's own goroutine keeps writing.
//
// Posting yields to the scheduler before returning. On a real machine the
// NIC picks up a posted isend immediately; with fewer cores than ranks the
// Go scheduler would otherwise start each posted request only at the start
// of the posting rank's next CPU slice, up to a full round of compute
// later. The yield lets every runnable rank reach its post (and every
// posted collective's goroutine start) before compute resumes.
func post[T any](c *Comm, op func() (T, error)) *Request[T] {
	r := &Request[T]{c: c, ch: make(chan asyncResult[T], 1)}
	prev := c.asyncTail
	done := make(chan struct{})
	c.asyncTail = done
	c.pending++
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		v, err := op()
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

// IAlltoallv posts the payload exchange. Payloads are referenced: the caller
// must not mutate send or its rows until Wait returns.
func IAlltoallv[T Unit](c *Comm, send [][]T) *Request[[][]T] {
	if err := c.checkLen(len(send)); err != nil {
		return postErr[[][]T](c, err)
	}
	return post(c, func() ([][]T, error) { return alltoallv(c, "alltoallv", send) })
}

// IAlltoallvBytes forwards to IAlltoallv for the separately built bench/ module.
func (c *Comm) IAlltoallvBytes(send [][]byte) *Request[[][]byte] { return IAlltoallv(c, send) }
