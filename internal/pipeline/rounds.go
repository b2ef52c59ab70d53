package pipeline

// chunkSource deals a world's input to its seats: deal(slot, r) returns
// the bases of round r's chunk for the seat in comm slot — its reads
// concatenated behind separators, valid until that seat's parse of round r
// has read them — and whether records remain after round r. A seat whose
// chunk is empty still runs the round, keeping the world's collectives
// matched until every rank agrees the input is drained (the end-of-stream
// agreement rides on the exchange announcement, see exchanger.exchange).
// chunkProducer is the one implementation.
type chunkSource interface {
	deal(slot, r int) (bases []byte, more bool, err error)
}

// roundHooks is one rank's round-loop stage set. start(r) applies
// round-start faults; parse(r) takes round r's chunk and builds its send
// buffers, reporting whether the input continues past it; exchange(r, more)
// ships round r's send buffers, piggybacking the more flag on the count
// announcement, verifies and retries what arrives, and returns the world's
// agreement on whether any rank still has input; count(r) inserts the
// received items into the rank's table.
// The optional checkpoint hooks ride along: ckptAt(r) reports whether
// round r is a checkpoint round — it must be a pure function of r, the
// same on every rank, because ckpt(r) runs collective barriers — ckpt(r)
// persists the rank's state as of the end of round r.
type roundHooks struct {
	start    func(r int) error
	parse    func(r int) (more bool, err error)
	exchange func(r int, more bool) (anyMore bool, err error)
	count    func(r int) error
	ckptAt   func(r int) bool
	ckpt     func(r int) error
}

// parseSlots is how many buffers a rank's parse output rotates over (see
// "Buffer lifetimes" on runRounds). With one, a fast rank's parse(r+1)
// rewrites rows a slow peer is still counting as round r:
// TestStreamMatchesInMemory and TestSpillMatchesInMemory then fail with
// wrong distinct counts (and report the race under -race) — they are this
// constant's regression tests.
const parseSlots = 2

// runRounds drives one rank's open-ended round loop until the world
// agrees no rank has input left, returning the number of rounds
// executed. Every round runs bulk-synchronously — start, parse, exchange,
// count, then the checkpoint when one is due — as the paper's rounds do.
// Result.ModeledTotal prices the same rounds as an overlapped pipeline, a
// projection over the phase totals that no setting selects.
// The round count is not known up front — a streaming source reveals its
// end only by draining — so termination is collective: every outgoing
// announcement carries the sender's "my input continues" flag, exchange(r)
// folds the incoming flags into anyMore, and every rank observes the same
// announcements, so all ranks exit after the same round. Every rank runs
// every round (with empty sends once its own data is exhausted):
// collectives stay matched across ranks with no extra agreement traffic.
//
// Buffer lifetimes. Peers read a round's frames zero-copy: what rank q
// receives in round r are views into the memory rank p shipped, and q
// reads them (verify in exchange(r), insert in count(r)) until its count(r)
// ends. q's count(r) precedes q's exchange(r+1), whose count announcement
// completes on p only once every rank has entered it — so whatever p does
// after its own exchange(r+1) is ordered behind every peer's last read of
// round r. Every buffer a peer reads past the collective that delivered
// it — the engines' send rows (which ARE the wire frames, sealed in place
// by the exchange) and route's fold rows (in the rank body's roundState
// pair) — is therefore rotated over two slots, indexed r%2: round r+2
// touches its slot first at parse(r+2) or exchange(r+2), both after
// exchange(r+1).
// One slot is not enough for the send rows: parse(r+1) runs while a slow
// peer may still be counting round r out of this rank's rows.
//
// The bases a rank parses in round r are not its own: whichever rank first
// asks for round r cuts every rank's chunk of it (see chunkProducer), and
// round r+2 is cut into the same parity's buffers by a parse(r+2) — which
// follows that rank's exchange(r+1), hence every rank's parse(r+1) and
// parse(r). Two base buffers a rank, by r%2, suffice.
//
// base is the first round index (non-zero when resuming from a
// checkpoint); hooks see global round numbers and the returned count is
// the global total (base + rounds executed here), so a resumed run
// reports the same Rounds as an unfaulted one. A checkpoint captures the
// stream cursor after round r was cut and before round r+1 is: ckpt(r)
// runs after count(r), and its barriers hold every rank until comm rank 0
// has read the cursor.
func runRounds(base int, h roundHooks) (rounds int, err error) {
	for r := base; ; r++ {
		if err := h.start(r); err != nil {
			return r, err
		}
		more, err := h.parse(r)
		if err != nil {
			return r, err
		}
		anyMore, err := h.exchange(r, more)
		if err != nil {
			return r, err
		}
		if err := h.count(r); err != nil {
			return r, err
		}
		if !anyMore {
			return r + 1, nil
		}
		if h.ckptAt != nil && h.ckptAt(r) {
			if err := h.ckpt(r); err != nil {
				return r, err
			}
		}
	}
}
