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
// AllreduceSum) to retry the round from the retained send rows, up to
// maxRetries times. Payloads that already verified are kept across
// attempts — a retry only needs the previously-bad sources to clear. A
// round still damaged after its last retry fails the run on every rank
// with ErrExchangeLost: a run returns the exact spectrum or an error.
//
// Faults strike where a lossy fabric would: on arrival (arrive). The
// injector rolls each awaited frame's drop and corruption per attempt, so
// transient faults clear under retry, and a row itself is never touched —
// Corrupt flips its bit in a copy.
//
// The exchanger owns no payload memory: a send row arrives from the parse
// phase with the frame header's room ahead of it (codec.header), exchange
// seals the header into that room once, and every attempt ships the row
// where it lies; peers read it zero-copy until their count of the round
// ends — which is why the parse phase rotates its rows over parseSlots
// buffers (rounds.go has the lifetime argument). What the exchanger does
// pool is the round's bookkeeping: the counts and part vectors and the
// verification flags. One set serves every round: peers read the counts
// only inside the announcement, and the rank body is done with the part
// vector at count(r), before exchange(r+1) reuses it.
//
// The exchanger is written once over the payload unit T (words in k-mer
// mode, bytes in supermer mode); what a row of units means — its item
// count, its frame, how a received frame is verified — is the codec's
// business.
//
// Every attempt ships the P×P Alltoallv of the paper (Alg. 1 line 8);
// retries are traced apart from attempt 0 (mpisim.AlltoallvRetry), so the
// run can price attempt 0 leader-routed as well (Result.HierExchange).
//
// When a recorder is configured, faults surface as instant events on the
// sender's rank and each retry attempt gets its own span nested inside the
// rank body's exchange span.
type exchanger[T unit] struct {
	c *mpisim.Comm
	// rank is the seat's original rank id — the coordinate for fault
	// rolls and observability. It differs from c.Rank() once a rank has
	// died: the fault schedule and the report's rank axis stay keyed to
	// the original world. slots maps each comm rank to its original id,
	// the sender coordinate of an arriving frame's rolls.
	rank  int
	slots []int
	inj   *fault.Injector
	rec   *obs.Recorder
	cd    codec[T]
	// flatMsgs and leaderMsgs count the fabric messages of attempt-0
	// payload exchanges (pipeline_exchange_messages_total) as run and
	// leader-routed; nil without a recorder. A round adds flatRound = P²
	// and leaderRound = L², L = ⌈P/RanksPerNode⌉ for the current world.
	flatMsgs, leaderMsgs   *obs.Counter
	flatRound, leaderRound uint64
	// The pooled round bookkeeping (see above).
	counts []int
	parts  [][]T
	ok     []bool
}

// newExchanger builds the exchanger of one rank body; the leader-routed
// message tally follows the current world's size, also in a world
// restarted on the survivors of a rank death.
func newExchanger[T unit](cfg *Config, c *mpisim.Comm, seat *rankSeat, inj *fault.Injector, cd codec[T]) *exchanger[T] {
	e := &exchanger[T]{c: c, rank: seat.old, slots: seat.slots, inj: inj, rec: cfg.Obs, cd: cd}
	if reg := cfg.Obs.Registry(); reg != nil {
		const name, help = "pipeline_exchange_messages_total",
			"Fabric point-to-point messages of attempt-0 payload exchanges: as run (route flat, P² a round) and leader-routed (route leader, (P/RanksPerNode)² a round)."
		e.flatMsgs = reg.Counter(name, help, obs.L("route", "flat"))
		e.leaderMsgs = reg.Counter(name, help, obs.L("route", "leader"))
		e.flatRound = uint64(kernels.FlatExchangeMessages(c.Size()))
		e.leaderRound = uint64(kernels.HierExchangeMessages(c.Size(), cfg.Layout.Net.RanksPerNode))
	}
	return e
}

// grow resizes a pooled slice to n elements, reallocating only when the
// capacity is short; the contents are unspecified.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// headRows resizes a pooled row vector to n rows, each truncated to its
// first h units with capacity retained: the frame header's room a send row
// is appended behind, its contents unspecified until the exchange seals it.
func headRows[T any](rows [][]T, n, h int) [][]T {
	rows = grow(rows, n)
	for i, row := range rows {
		if cap(row) < h {
			row = make([]T, h)
		}
		rows[i] = row[:h]
	}
	return rows
}

// moreFlag is the end-of-stream agreement bit piggybacked on the count
// announcement: a rank whose input continues past this round sets it on
// every outgoing count, and the exchange folds the incoming flags into
// anyMore before stripping them. Because every rank derives anyMore from
// the same announcement, termination of the open-ended round loop is
// collective with zero extra collectives — and the announcement travels
// outside the fault injector's reach, so the agreement survives dropped
// and corrupted payload frames. Bit 30 leaves per-destination counts up to
// ~10⁹ items representable, far beyond any budget-bounded round.
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
// frames, the count announcement goes out, and the frames ship; every
// frame a receiver still awaits meets the fabric's faults (arrive) and is
// verified (checksum, announced item count and — for supermers — image
// structure; see codec.unframe), bad rounds re-ship the sealed rows, and
// settle agrees on the outcome. Each send[d] is destination d's row behind
// codec.header units of room; it must stay unmutated until every peer has
// counted the round. more announces that
// this rank's input continues past this round (see moreFlag). It returns
// the per-source verified payloads plus the announcement's end-of-stream
// agreement: anyMore is true while any rank's input continues. A failure —
// ErrExchangeLost once the retries are spent — fails the rank.
func (e *exchanger[T]) exchange(round int, send [][]T, more bool) ([][]T, bool, error) {
	h := e.cd.header()
	e.counts = grow(e.counts, len(send))
	for d, frame := range send {
		e.counts[d] = e.cd.items(frame[h:])
		if more {
			e.counts[d] |= moreFlag
		}
		e.cd.seal(frame)
	}
	// Rank 0 of the current communicator credits the whole round's fabric
	// message tally, so the counter reads as messages-per-run, not
	// per-rank shares.
	if e.flatMsgs != nil && e.c.Rank() == 0 {
		e.flatMsgs.Add(e.flatRound)
		e.leaderMsgs.Add(e.leaderRound)
	}
	expect, err := e.c.Alltoall(e.counts)
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
		var (
			sp   obs.SpanHandle
			recv [][]T
		)
		if attempt == 0 {
			recv, err = mpisim.Alltoallv(e.c, send)
		} else {
			sp = e.rec.Begin(e.rank, round, obs.PhaseRetry)
			recv, err = mpisim.AlltoallvRetry(e.c, send)
		}
		if err != nil {
			sp.End(0, 0)
			return nil, false, err
		}
		var bad uint64
		for i, f := range recv {
			if ok[i] {
				continue // verified on an earlier attempt
			}
			if parts[i], ok[i] = e.cd.unframe(e.arrive(round, attempt, i, f), expect[i]); !ok[i] {
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

// arrive applies the injector's drop and corrupt rolls to the frame comm
// rank src shipped this rank on this attempt, keyed on the sender's
// original rank, the round, the attempt and this rank's comm rank. A
// dropped frame arrives as nil; Corrupt copies on a hit, so the sender's
// row stays clean. Tallies and instants go to the sender's rank.
func (e *exchanger[T]) arrive(round, attempt, src int, frame []T) []T {
	from, me := e.slots[src], e.c.Rank()
	if e.inj.Drop(from, round, attempt, me) {
		e.rec.Instant(from, round, obs.EvDrop)
		return nil
	}
	frame, hit := fault.Corrupt(e.inj, from, round, attempt, me, frame)
	if hit {
		e.rec.Instant(from, round, obs.EvCorrupt)
	}
	return frame
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
