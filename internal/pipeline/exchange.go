package pipeline

import (
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
// that exhausts its budget degrades: the verified payloads are counted,
// the rest are discarded, and the rank's outcome is flagged incomplete.
//
// The exchange is split into a post half (announce the counts and ship
// attempt 0 with nonblocking collectives) and a finish half (wait, verify,
// retry, settle), so the round loop can run the next round's parse between
// them (Config.Overlap). The exchanger owns no payload memory: a send row
// arrives from the parse phase with the frame header's room ahead of it
// (codec.header), attempt 0 seals the header into that room and ships the
// row where it lies, and peers read it zero-copy until their count of the
// round ends — which is why the parse phase rotates its rows over
// parseSlots buffers (rounds.go has the lifetime argument). Retry attempts
// frame private copies instead: receivers may retain verified views of
// earlier attempts, and a corrupted or dropped attempt must leave the send
// row clean, so a live round's rows are sealed once and never rewritten.
// What the exchanger does pool, in two parity-indexed slots written at post
// and finish time, is the round's bookkeeping: the counts vector, the frame
// and part vectors, the verification flags.
//
// The exchanger is written once over the payload unit T (words in k-mer
// mode, bytes in supermer mode); what a row of units means — its item
// count, its frame, how a received frame is verified — is the codec's
// business.
//
// HOW attempt-0 frames travel is pluggable (exchangeStrategy): the flat
// strategy ships the P×P Alltoallv directly; the hierarchical strategy
// routes off-node frames through node leaders over the NVLink tier. The
// announcement, CRC verification, retry, settle and degrade machinery is
// shared — strategies only move opaque frames — which is what keeps every
// strategy bit-identical under the fault × overlap × restart matrix.
//
// When a recorder is configured, injected drops/corruptions surface as
// instant events, each retry attempt gets its own span nested inside the
// exchange span, and a degraded round emits a degraded_round instant.
type exchanger[T unit] struct {
	c *mpisim.Comm
	// rank is the seat's original rank id — the coordinate for fault
	// rolls and observability. It differs from c.Rank() once a rank has
	// died: the fault schedule and the report's rank axis stay keyed to
	// the original world.
	rank    int
	inj     *fault.Injector
	retries int
	out     *rankOutcome
	rec     *obs.Recorder
	cd      codec[T]
	strat   exchangeStrategy[T]
	// msgs counts the fabric messages posted by attempt-0 payload
	// exchanges (pipeline_exchange_messages_total); nil without a recorder.
	// roundMsgs is one round's tally: P² flat, ceil(P/RanksPerNode)²
	// hierarchical.
	msgs      *obs.Counter
	roundMsgs int
	slots     [2]exchangeSlot[T]
}

// exchangeStrategy is the pluggable attempt-0 shipping layer of the
// exchange. post runs inside the exchanger's post half and must post the
// count announcement onto p.ann plus whatever payload collectives the
// strategy needs; it may issue blocking intra-node collectives first — the
// round loop guarantees no nonblocking requests are pending at any post
// site, in both schedules. finish waits for those collectives and returns
// the attempt-0 frames indexed by (current-communicator) source rank, nil
// marking a frame lost in flight — the shared verifier treats every
// returned frame exactly as a flat Alltoallv row, and retries always use
// the flat blocking path (the rare path optimizes for simplicity, and its
// frames are freshly framed from the retained send buffers either way).
type exchangeStrategy[T unit] interface {
	post(p *pendingExchange[T], counts []int, framed [][]T)
	finish(p *pendingExchange[T]) ([][]T, error)
}

// newExchanger builds the configured strategy's exchanger for one rank
// body, so the hierarchical topology always reflects the current world
// size, also in a world restarted on the survivors of a rank death.
func newExchanger[T unit](cfg *Config, c *mpisim.Comm, rank int, inj *fault.Injector, out *rankOutcome, cd codec[T]) *exchanger[T] {
	e := &exchanger[T]{
		c: c, rank: rank, inj: inj,
		retries: cfg.maxRetries(), out: out, rec: cfg.Obs, cd: cd,
	}
	switch cfg.Exchange {
	case ExchangeHier:
		topo := cfg.Layout.Net.Topology()
		e.strat = &hierStrategy[T]{e: e, topo: topo}
		e.roundMsgs = kernels.HierExchangeMessages(c.Size(), topo.RanksPerNode)
	default:
		e.strat = flatStrategy[T]{e}
		e.roundMsgs = kernels.FlatExchangeMessages(c.Size())
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		e.msgs = reg.Counter("pipeline_exchange_messages_total",
			"Fabric point-to-point messages comprised by attempt-0 payload exchanges (P² flat, (P/RanksPerNode)² hierarchical).",
			obs.L("strategy", cfg.Exchange.String()))
	}
	return e
}

// flatStrategy ships attempt-0 frames with the direct P×P nonblocking
// Alltoallv — the paper's baseline exchange.
type flatStrategy[T unit] struct{ e *exchanger[T] }

func (s flatStrategy[T]) post(p *pendingExchange[T], counts []int, framed [][]T) {
	p.ann = s.e.c.IAlltoall(counts)
	p.req = mpisim.IAlltoallv(s.e.c, framed)
}

func (s flatStrategy[T]) finish(p *pendingExchange[T]) ([][]T, error) {
	return p.req.Wait()
}

// exchangeSlot is one parity's pooled round bookkeeping.
type exchangeSlot[T unit] struct {
	counts []int
	framed [][]T
	parts  [][]T
	ok     []bool
}

// pendingExchange is one posted round exchange awaiting its finish half.
type pendingExchange[T unit] struct {
	round int
	// sp is the round's exchange span: opened at post, ended by the caller
	// after finish (or by finish itself on error).
	sp  obs.SpanHandle
	ann *mpisim.Request[[]int]
	// req is the strategy's nonblocking payload collective: the P×P
	// Alltoallv under flat, the inter-node leader Alltoallv under hier.
	req *mpisim.Request[[][]T]
	// postErr records a failure of a strategy's blocking post stage (the
	// intra-node gather); it surfaces when the round is finished.
	postErr error
	hier    *hierSlot[T]
	// send is the round's routed send set — rows behind header room, sealed
	// into frames by attempt 0 — retained as the retry source.
	send [][]T
	slot *exchangeSlot[T]
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
// every outgoing count, and finish folds the incoming flags into anyMore
// before stripping them. Because every rank derives anyMore from the same
// announcement, termination of the open-ended round loop is collective
// with zero extra collectives — and the announcement travels outside the
// fault injector's reach, so the agreement survives dropped and corrupted
// payload frames. Bit 30 leaves per-destination counts up to ~10⁹ items
// representable, far beyond any RoundBases-bounded round.
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

// post posts one round's exchange: the send rows are sealed into their
// attempt-0 frames and handed to the strategy, which posts the count
// announcement (IAlltoall — the vector is copied at post time, so the pooled
// slot is immediately reusable) and ships the frames. Each send[d] is
// destination d's row behind codec.header units of room; it must stay
// unmutated until finish returns (it is also the retry source) and, under
// the flat strategy, until every peer has counted the round. more announces
// that this rank's input continues past this round (see moreFlag).
func (e *exchanger[T]) post(round int, send [][]T, more bool) *pendingExchange[T] {
	slot := &e.slots[round%2]
	p := &pendingExchange[T]{round: round, send: send, slot: slot}
	p.sp = e.rec.Begin(e.rank, round, obs.PhaseExchange)

	h := e.cd.header()
	slot.counts = grow(slot.counts, len(send))
	for d, frame := range send {
		slot.counts[d] = e.cd.items(frame[h:])
		if more {
			slot.counts[d] |= moreFlag
		}
	}
	e.strat.post(p, slot.counts, e.frames(p, 0))
	// Rank 0 of the current communicator credits the whole round's fabric
	// message tally, so the counter reads as messages-per-run, not
	// per-rank shares.
	if e.msgs != nil && e.c.Rank() == 0 {
		e.msgs.Add(uint64(e.roundMsgs))
	}
	return p
}

// frames builds one attempt's per-destination frames from the retained
// send set, applying the injector's drop and corrupt rolls for that
// attempt. Attempt 0 seals every send row in place — the row is the frame;
// a retry frames a private copy of the row (see the exchanger comment). A
// dropped destination gets nil; Corrupt copies on hit, so the send row
// itself stays clean.
func (e *exchanger[T]) frames(p *pendingExchange[T], attempt int) [][]T {
	rank, slot, h := e.rank, p.slot, e.cd.header()
	slot.framed = grow(slot.framed, len(p.send))
	for d, frame := range p.send {
		if e.inj.Drop(rank, p.round, attempt, d) {
			slot.framed[d] = nil
			e.rec.Instant(rank, p.round, obs.EvDrop)
			continue
		}
		if attempt == 0 {
			e.cd.seal(frame)
		} else {
			frame = e.cd.appendFrame(make([]T, 0, len(frame)), frame[h:])
		}
		var hit bool
		slot.framed[d], hit = fault.Corrupt(e.inj, rank, p.round, attempt, d, frame)
		if hit {
			e.rec.Instant(rank, p.round, obs.EvCorrupt)
		}
	}
	return slot.framed
}

// finish completes a posted exchange: wait for the announcement and
// attempt-0 payloads, verify every frame (checksum, announced item count
// and — for supermers — image structure; see codec.unframe), retry bad
// rounds with blocking collectives, and settle. It returns the per-source
// verified payloads (nil for a source whose payload was lost past the retry
// budget) plus the announcement's end-of-stream agreement: anyMore is true
// while any rank's input continues (see moreFlag). On error the exchange
// span is closed; on success it stays open for the caller to End with the
// staging time.
func (e *exchanger[T]) finish(p *pendingExchange[T]) ([][]T, bool, error) {
	rank := e.rank
	slot := p.slot
	if p.postErr != nil {
		p.sp.End(0, 0)
		return nil, false, p.postErr
	}
	expect, err := p.ann.Wait()
	if err != nil {
		p.sp.End(0, 0)
		return nil, false, err
	}
	anyMore := stripMore(expect)
	n := len(p.send)
	slot.parts = grow(slot.parts, n)
	slot.ok = grow(slot.ok, n)
	parts, ok := slot.parts, slot.ok
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
			recv, err = e.strat.finish(p)
		} else {
			sp = e.rec.Begin(rank, p.round, obs.PhaseRetry)
			recv, err = mpisim.Alltoallv(e.c, e.frames(p, attempt))
		}
		if err != nil {
			sp.End(0, 0)
			p.sp.End(0, 0)
			return nil, false, err
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
		done, err := e.settle(p.round, attempt, bad)
		sp.End(0, bad)
		if err != nil {
			p.sp.End(0, 0)
			return nil, false, err
		}
		if !done {
			continue
		}
		if bad > 0 {
			// Payloads lost for good: flag the rank outcome degraded.
			var lost uint64
			for i := range parts {
				if !ok[i] {
					lost += uint64(expect[i])
				}
			}
			e.out.incomplete = true
			e.inj.RecordDiscarded(rank, lost)
			e.rec.Instant(rank, p.round, obs.EvDegraded)
		}
		return parts, anyMore, nil
	}
}

// settle agrees world-wide on this attempt's outcome: done=true means the
// caller must release the (possibly degraded) payloads; done=false means
// every rank retries. The AllreduceSum keeps the decision collective —
// ranks never diverge on whether a retry happens.
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
	if attempt < e.retries {
		e.inj.RecordRetry(rank)
		e.rec.Instant(rank, round, obs.EvRetry)
		return false, nil
	}
	return true, nil // budget exhausted: degrade
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
