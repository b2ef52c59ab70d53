package pipeline

// chunkSource deals a world's input to its seats: deal(slot, r) returns
// the bases of round r's chunk for the seat in comm slot — its reads
// concatenated behind separators, valid until that seat's parse of round r
// has read them — and whether records remain after round r. A seat whose
// chunk is empty still runs the round, keeping the world's collectives
// matched until every rank agrees the input is drained (the end-of-stream
// agreement rides on the exchange announcement, see exchanger.post*).
// chunkProducer is the one implementation.
type chunkSource interface {
	deal(slot, r int) (bases []byte, more bool, err error)
}

// roundHooks is one rank's round-loop stage set. start(r) applies
// round-start faults; parse(r) takes round r's chunk and builds its send
// buffers, reporting whether the input continues past it;
// post(r, more) posts round r's exchange with nonblocking collectives,
// piggybacking the more flag on the count announcement; finish(r)
// completes the exchange (verification, retries, the settle collective)
// and returns the world's agreement on whether any rank still has input;
// count(r) inserts the received items into the rank's table.
// The optional checkpoint hooks ride along: ckptAt(r) reports whether
// round r is a checkpoint round — it must be a pure function of r, the
// same on every rank, because ckpt(r) runs collective barriers — ckpt(r)
// persists the rank's state as of the end of round r.
type roundHooks struct {
	start  func(r int) error
	parse  func(r int) (more bool, err error)
	post   func(r int, more bool) error
	finish func(r int) (anyMore bool, err error)
	count  func(r int) error
	ckptAt func(r int) bool
	ckpt   func(r int) error
}

// parseSlots is how many buffers a rank's parse output rotates over (see
// "Buffer lifetimes" on runRounds). With two, a fast rank's parse(r+2)
// rewrites rows a slow peer is still counting as round r:
// TestStreamMatchesInMemory/*/overlap=true/*/flat and
// TestSpillMatchesInMemory/*/overlap=true/*/flat then fail with wrong
// distinct counts (and report the race under -race) — they are this
// constant's regression tests.
const parseSlots = 3

// runRounds drives one rank's open-ended round loop until the world
// agrees no rank has input left, returning the number of rounds
// executed. The round count is not known up front — a streaming source
// reveals its end only by draining — so termination is collective: every
// outgoing announcement carries the sender's "my input continues" flag,
// finish(r) folds the incoming flags into anyMore, and every rank
// observes the same announcements, so all ranks exit after the same
// round. Every rank runs every round (with empty sends once its own data
// is exhausted): collectives stay matched across ranks with no extra
// agreement traffic.
//
// Serial schedule: start, parse, post, finish, count per round — post's
// requests are waited immediately, reproducing the bulk-synchronous
// baseline.
//
// Overlapped schedule: round r's exchange is in flight while the rank
// runs parse(r+1), and round r+1's exchange is posted before count(r),
// so the wire hides behind both the next parse and the current count.
// Whether round r+1 exists is only known at finish(r) — but a rank whose
// own input continues (more from parse(r)) knows r+1 must happen and
// parses it early; a drained rank parses its (empty) next chunk after
// finish(r) confirms the world goes on. Either way each executed round
// sees exactly one start/parse/post/finish/count, so the per-round
// observability spans and fault schedule match the serial schedule. The
// order per iteration is parse(r+1); finish(r); post(r+1); count(r),
// which keeps at most one round's requests outstanding — finish's
// blocking retry/settle collectives stay legal (mpisim forbids blocking
// calls with posted requests pending).
//
// Buffer lifetimes. Peers read a round's frames zero-copy: what rank q
// receives in round r are views into the memory rank p shipped, and q
// reads them (verify in finish(r), insert in count(r)) until its count(r)
// ends. q's count(r) precedes q's finish(r+1), and finish(r+1)'s settle
// collective completes on p only once every rank has entered it — so
// whatever p does after its own finish(r+1) is ordered behind every
// peer's last read of round r. That gives two rules, by WHEN a buffer is
// written:
//
//   - written at post or finish time (route's fold rows, the exchanger's
//     and the hierarchical strategy's slots): two slots, indexed r%2.
//     Round r+2 touches them first at post(r+2), which follows
//     finish(r+1) in both schedules.
//   - written at parse time (the engines' send rows — which ARE the wire
//     frames, sealed in place by post): parseSlots = three, indexed
//     r%parseSlots. parse(r+2) runs BEFORE finish(r+1) in the overlapped
//     schedule, while a slow peer may still be counting round r out of
//     this rank's rows; parse(r+3) opens the iteration after the one
//     that ran finish(r+1).
//
// The rank body's own roundState pair (r%2) holds nothing a peer reads:
// round r is done with it at count(r), which precedes parse(r+2) locally.
// The bases a rank parses in round r are not its own: whichever rank first
// asks for round r cuts every rank's chunk of it (see chunkProducer), and
// round r+2 is cut into the same parity's buffers by a parse(r+2) — which
// follows that rank's finish(r), hence, by the same settle argument, every
// rank's parse(r). Two base buffers a rank, by r%2, suffice.
//
// base is the first round index (non-zero when resuming from a
// checkpoint); hooks see global round numbers and the returned count is
// the global total (base + rounds executed here), so a resumed run
// reports the same Rounds as an unfaulted one.
//
// Checkpoint rounds drain the overlap: a checkpoint must capture the
// stream cursor *before* round r+1 is cut, so when ckptAt(r)
// the speculative parse(r+1) is suppressed and the iteration runs
// finish(r); count(r); ckpt(r); parse(r+1); post(r+1) — a pipeline
// bubble every Ckpt.Every rounds, which is the checkpoint's entire
// steady-state cost. ckpt(r) runs blocking collectives, which is legal
// exactly there: round r's requests were waited by finish(r) and round
// r+1's are not yet posted. A fast rank's speculative parse(r+2) may
// then run before a slow rank's deferred parse(r+1): both rounds are cut
// whole, in order, so neither what a rank parses nor the round count
// depends on which rank asks first.
func runRounds(overlap bool, base int, h roundHooks) (rounds int, err error) {
	ckptDue := func(r int) bool { return h.ckptAt != nil && h.ckptAt(r) }
	if !overlap {
		for r := base; ; r++ {
			if err := h.start(r); err != nil {
				return r, err
			}
			more, err := h.parse(r)
			if err != nil {
				return r, err
			}
			if err := h.post(r, more); err != nil {
				return r, err
			}
			anyMore, err := h.finish(r)
			if err != nil {
				return r, err
			}
			if err := h.count(r); err != nil {
				return r, err
			}
			if !anyMore {
				return r + 1, nil
			}
			if ckptDue(r) {
				if err := h.ckpt(r); err != nil {
					return r, err
				}
			}
		}
	}
	if err := h.start(base); err != nil {
		return base, err
	}
	selfMore, err := h.parse(base)
	if err != nil {
		return base, err
	}
	if err := h.post(base, selfMore); err != nil {
		return base, err
	}
	for r := base; ; r++ {
		drain := ckptDue(r)
		var nextMore bool
		parsedNext := false
		if selfMore && !drain {
			// This rank's own input continues, so round r+1 is certain:
			// parse it while round r's exchange is in flight. (On a
			// checkpoint round the pull waits until after ckpt(r) captured
			// the cursor.)
			if err := h.start(r + 1); err != nil {
				return r, err
			}
			if nextMore, err = h.parse(r + 1); err != nil {
				return r, err
			}
			parsedNext = true
		}
		anyMore, err := h.finish(r)
		if err != nil {
			return r, err
		}
		if !anyMore {
			if err := h.count(r); err != nil {
				return r, err
			}
			return r + 1, nil
		}
		if parsedNext {
			if err := h.post(r+1, nextMore); err != nil {
				return r, err
			}
			if err := h.count(r); err != nil {
				return r, err
			}
		} else {
			// No speculative parse happened — the rank's input is drained
			// or round r checkpoints. Count first (the checkpoint includes
			// round r's counts), persist, then pull and post round r+1.
			if err := h.count(r); err != nil {
				return r, err
			}
			if drain {
				if err := h.ckpt(r); err != nil {
					return r, err
				}
			}
			if err := h.start(r + 1); err != nil {
				return r, err
			}
			if nextMore, err = h.parse(r + 1); err != nil {
				return r, err
			}
			if err := h.post(r+1, nextMore); err != nil {
				return r, err
			}
		}
		selfMore = nextMore
	}
}
