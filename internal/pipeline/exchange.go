package pipeline

import (
	"errors"
	"fmt"
	"time"

	"dedukt/internal/fault"
	"dedukt/internal/kernels"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
)

// exchanger is the fault-tolerant exchange path of the rank body. Every
// per-destination payload travels inside a checksummed frame (the kernels
// byte or word frame); the receiver verifies each frame and cross-checks
// its item count against the Alltoall announcement. When
// any rank receives a bad or missing frame, the world agrees (via
// AllreduceSum) to retry the round from the retained send buffers, up to
// maxRetries times. Payloads that already verified are kept across
// attempts — a retry only needs the previously-bad sources to clear — and
// the fault injector re-rolls per attempt, so transient faults do. A round
// still damaged after its last retry fails the run on every rank with
// ErrExchangeLost: a run returns the exact spectrum or an error.
//
// The exchanger owns no payload memory: a send row arrives from the parse
// phase with the frame header's room ahead of it (codec.header), attempt 0
// seals the header into that room and ships the row where it lies, and
// peers read it zero-copy until their count of the round ends — which is
// why the parse phase rotates its rows over parseSlots buffers (rounds.go
// has the lifetime argument). Retry attempts frame private copies instead:
// receivers may retain verified views of earlier attempts, and a corrupted
// or dropped attempt must leave the send row clean, so a live round's rows
// are sealed once and never rewritten. What the exchanger does pool is the
// round's bookkeeping: the counts vector, the frame and part vectors, the
// verification flags. One set serves every round: peers read the counts
// and frame vectors only inside the collectives, and the rank body is done
// with the part vector at count(r), before exchange(r+1) reuses it.
//
// The exchanger is written once over the payload unit T (words in k-mer
// mode, bytes in supermer mode); what a row of units means — its item
// count, its frame, how a received frame is verified — is the codec's
// business.
//
// HOW attempt-0 frames travel is pluggable (exchangeStrategy): the flat
// strategy ships the P×P Alltoallv directly; the hierarchical strategy
// routes off-node frames through node leaders over the NVLink tier. The
// verification, retry and settle machinery is shared — strategies only
// move the announcement and opaque frames — which is what keeps every
// strategy bit-identical under the fault × restart matrix.
//
// When a recorder is configured, injected drops/corruptions surface as
// instant events and each retry attempt gets its own span nested inside the
// rank body's exchange span.
type exchanger[T unit] struct {
	c *mpisim.Comm
	// rank is the seat's original rank id — the coordinate for fault
	// rolls and observability. It differs from c.Rank() once a rank has
	// died: the fault schedule and the report's rank axis stay keyed to
	// the original world.
	rank  int
	inj   *fault.Injector
	rec   *obs.Recorder
	cd    codec[T]
	strat exchangeStrategy[T]
	// msgs counts the fabric messages shipped by attempt-0 payload
	// exchanges (pipeline_exchange_messages_total); nil without a recorder.
	// roundMsgs is one round's tally: P² flat, ceil(P/RanksPerNode)²
	// hierarchical.
	msgs      *obs.Counter
	roundMsgs int
	// The pooled round bookkeeping (see above).
	counts []int
	framed [][]T
	parts  [][]T
	ok     []bool
}

// exchangeStrategy is the pluggable attempt-0 shipping layer of the
// exchange. ship exchanges the round's count announcement (the Alltoall)
// and its attempt-0 frames, returning the announcement received and the
// frames indexed by (current-communicator) source rank, nil marking a
// frame lost in flight — the shared verifier treats every returned frame
// exactly as a flat Alltoallv row, and retries always use the flat path
// (the rare path optimizes for simplicity, and its frames are freshly
// framed from the retained send buffers either way).
type exchangeStrategy[T unit] interface {
	ship(round int, counts []int, framed [][]T) (expect []int, recv [][]T, err error)
}

// newExchanger builds the configured strategy's exchanger for one rank
// body, so the hierarchical topology always reflects the current world
// size, also in a world restarted on the survivors of a rank death.
func newExchanger[T unit](cfg *Config, c *mpisim.Comm, rank int, inj *fault.Injector, cd codec[T]) *exchanger[T] {
	e := &exchanger[T]{c: c, rank: rank, inj: inj, rec: cfg.Obs, cd: cd}
	switch cfg.Exchange {
	case ExchangeHier:
		topo := cfg.Layout.Net.Topology()
		e.strat = &hierStrategy[T]{e: e, topo: topo}
		e.roundMsgs = kernels.HierExchangeMessages(c.Size(), topo.RanksPerNode)
	default:
		e.strat = flatStrategy[T]{c}
		e.roundMsgs = kernels.FlatExchangeMessages(c.Size())
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		e.msgs = reg.Counter("pipeline_exchange_messages_total",
			"Fabric point-to-point messages comprised by attempt-0 payload exchanges (P² flat, (P/RanksPerNode)² hierarchical).",
			obs.L("strategy", cfg.Exchange.String()))
	}
	return e
}

// flatStrategy ships attempt-0 frames with the direct P×P Alltoallv — the
// paper's baseline exchange (Alg. 1 line 8).
type flatStrategy[T unit] struct{ c *mpisim.Comm }

func (s flatStrategy[T]) ship(_ int, counts []int, framed [][]T) ([]int, [][]T, error) {
	expect, err := s.c.Alltoall(counts)
	if err != nil {
		return nil, nil, err
	}
	recv, err := mpisim.Alltoallv(s.c, framed)
	return expect, recv, err
}

// grow resizes a pooled slice to n elements, reallocating only when the
// capacity is short; the contents are unspecified.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// moreFlag is the end-of-stream agreement bit piggybacked on the count
// announcement: a rank whose input continues past this round sets it on
// every outgoing count, and the exchange folds the incoming flags into
// anyMore before stripping them. Because every rank derives anyMore from
// the same announcement, termination of the open-ended round loop is
// collective with zero extra collectives — and the announcement travels
// outside the fault injector's reach, so the agreement survives dropped
// and corrupted payload frames. Bit 30 leaves per-destination counts up to
// ~10⁹ items representable, far beyond any RoundBases-bounded round.
const moreFlag = 1 << 30

// stripMore extracts the more-bits from a received announcement in
// place, returning whether any sender's input continues.
func stripMore(expect []int) (anyMore bool) {
	for i, v := range expect {
		if v&moreFlag != 0 {
			anyMore = true
			expect[i] = v &^ moreFlag
		}
	}
	return anyMore
}

// exchange runs one round's exchange: the send rows are sealed into their
// attempt-0 frames and shipped by the strategy together with the count
// announcement; every arriving frame is verified (checksum, announced item
// count and — for supermers — image structure; see codec.unframe), bad
// rounds are retried from the send rows, and settle agrees on the outcome.
// Each send[d] is destination d's row behind codec.header units of room;
// it must stay unmutated until every peer has counted the round. more
// announces that this rank's input continues past this round (see
// moreFlag). It returns the per-source verified payloads plus the
// announcement's end-of-stream agreement: anyMore is true while any rank's
// input continues. A failure — ErrExchangeLost once the retries are spent
// — fails the rank.
func (e *exchanger[T]) exchange(round int, send [][]T, more bool) ([][]T, bool, error) {
	h := e.cd.header()
	e.counts = grow(e.counts, len(send))
	for d, frame := range send {
		e.counts[d] = e.cd.items(frame[h:])
		if more {
			e.counts[d] |= moreFlag
		}
	}
	framed := e.frames(round, 0, send)
	// Rank 0 of the current communicator credits the whole round's fabric
	// message tally, so the counter reads as messages-per-run, not
	// per-rank shares.
	if e.msgs != nil && e.c.Rank() == 0 {
		e.msgs.Add(uint64(e.roundMsgs))
	}
	expect, recv, err := e.strat.ship(round, e.counts, framed)
	if err != nil {
		return nil, false, err
	}
	anyMore := stripMore(expect)
	e.parts = grow(e.parts, len(send))
	e.ok = grow(e.ok, len(send))
	parts, ok := e.parts, e.ok
	for i := range parts {
		parts[i], ok[i] = nil, false
	}
	for attempt := 0; ; attempt++ {
		// Attempt 0 lives inside the enclosing exchange span; each retry
		// gets its own (End on the zero handle is a no-op).
		var sp obs.SpanHandle
		if attempt > 0 {
			sp = e.rec.Begin(e.rank, round, obs.PhaseRetry)
			if recv, err = mpisim.Alltoallv(e.c, e.frames(round, attempt, send)); err != nil {
				sp.End(0, 0)
				return nil, false, err
			}
		}
		var bad uint64
		for i, f := range recv {
			if ok[i] {
				continue // verified on an earlier attempt
			}
			if parts[i], ok[i] = e.cd.unframe(f, expect[i]); !ok[i] {
				bad++
			}
		}
		done, err := e.settle(round, attempt, bad)
		sp.End(0, bad)
		if err != nil {
			return nil, false, err
		}
		if done {
			return parts, anyMore, nil
		}
	}
}

// frames builds one attempt's per-destination frames from the retained
// send set, applying the injector's drop and corrupt rolls for that
// attempt. Attempt 0 seals every send row in place — the row is the frame;
// a retry frames a private copy of the row (see the exchanger comment). A
// dropped destination gets nil; Corrupt copies on hit, so the send row
// itself stays clean.
func (e *exchanger[T]) frames(round, attempt int, send [][]T) [][]T {
	rank, h := e.rank, e.cd.header()
	e.framed = grow(e.framed, len(send))
	for d, frame := range send {
		if e.inj.Drop(rank, round, attempt, d) {
			e.framed[d] = nil
			e.rec.Instant(rank, round, obs.EvDrop)
			continue
		}
		if attempt == 0 {
			e.cd.seal(frame)
		} else {
			frame = e.cd.appendFrame(make([]T, 0, len(frame)), frame[h:])
		}
		var hit bool
		e.framed[d], hit = fault.Corrupt(e.inj, rank, round, attempt, d, frame)
		if hit {
			e.rec.Instant(rank, round, obs.EvCorrupt)
		}
	}
	return e.framed
}

// maxRetries is how many times a round whose exchange arrived corrupted or
// incomplete is retried from the retained send rows before the run fails.
const maxRetries = 8

// ErrExchangeLost reports a round whose exchange was still damaged after
// maxRetries retries. Every rank returns it, and it is final: the drop and
// corrupt rolls are keyed on (rank, round, attempt, dest), so a replay of
// the round would lose the same frames.
var ErrExchangeLost = errors.New("pipeline: exchange lost")

// settle agrees world-wide on this attempt's outcome: done=true means every
// frame verified and the caller releases the payloads; done=false means
// every rank retries; past maxRetries every rank fails with
// ErrExchangeLost. The AllreduceSum keeps the decision collective — ranks
// never diverge on whether a retry happens.
func (e *exchanger[T]) settle(round, attempt int, bad uint64) (done bool, err error) {
	rank := e.rank
	e.inj.RecordBadFrames(rank, bad)
	totalBad, err := e.c.AllreduceSum(bad)
	if err != nil {
		return false, err
	}
	if totalBad == 0 {
		return true, nil
	}
	if attempt == maxRetries {
		return false, fmt.Errorf("%w: round %d has %d bad frames after %d retries", ErrExchangeLost, round, totalBad, maxRetries)
	}
	e.inj.RecordRetry(rank)
	e.rec.Instant(rank, round, obs.EvRetry)
	return false, nil
}

// killOrStall applies the injector's round-start faults for this rank: a
// straggler stall (recoverable — peers wait, or trip the deadline when one
// is configured), a probabilistic kill, or the deterministic fatal kill
// the recovery tests use (the rank abandons the computation, poisoning the
// world for its peers). rank is the seat's original id — the injector's
// schedule is keyed to the original world so a fatal kill targets the same
// rank whether or not earlier deaths renumbered the communicator. Fired
// faults surface as instant events when a recorder is configured.
func killOrStall(inj *fault.Injector, rank, round int, rec *obs.Recorder) error {
	if d := inj.Delay(rank, round); d > 0 {
		rec.Instant(rank, round, obs.EvDelay)
		time.Sleep(d)
	}
	if inj.Kill(rank, round) || inj.FatalKill(rank, round) {
		rec.Instant(rank, round, obs.EvKill)
		return fmt.Errorf("pipeline: rank %d at round %d: %w", rank, round, fault.ErrKilled)
	}
	return nil
}
