package pipeline

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// RunStream executes the configured pipeline over a streaming source,
// never materializing the dataset: the ranks' shared producer deals the
// source out one bounded round at a time, so the live working set stays
// under Config.MemBudgetBytes (counter tables excluded — they hold the
// output spectrum) regardless of input size. The spectrum is bit-identical
// to Run over the same records: k-mers are routed to their owning rank by
// key hash, so which rank parses a read never changes what is counted.
// The number of rounds is open-ended — ranks agree collectively, via a
// flag on each round's count announcement, when the input is drained (see
// runRounds).
//
// With Config.Ckpt set, the run persists round-granularity checkpoints
// and survives rank death by restarting the survivors from the last one
// (see runStream and DESIGN.md §12); under BalancedPartition it profiles
// the source before counting it. Either way it reads the source again, so
// src must then be a fastq.Replayer.
func RunStream(cfg Config, src fastq.Source) (*Result, error) {
	return stream(cfg, src, false)
}

// stream runs RunStream, or with resume ResumeStream, over src.
func stream(cfg Config, src fastq.Source, resume bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil stream source")
	}
	res, err := runStream(cfg, src, resume, cfg.streamRoundBases())
	if err != nil {
		return nil, err
	}
	res.Streamed, res.Resumed, res.MemBudget = true, resume, cfg.memBudget()
	return res, nil
}

// runStream is the one loop behind the entry points — Run, RunStream and,
// with resume, ResumeStream — each of which has validated cfg. It deals src
// out in rounds of share bases a seat, and runs worlds until one completes.
// A run that checkpoints or balances reads src again through its Replay —
// to restart, to resume, and to count what it profiled — so a src that
// cannot replay is refused before the first round. Under BalancedPartition
// src is profiled first and its supermers routed by the map built from it.
// A resumed run starts as a restart from the checkpoint in Ckpt.Dir. A
// failed world ends with all its goroutines returned and its source closed
// (when an io.Closer). When ranks died (restartable), checkpointing is on
// and Ckpt.NoShrink off, the survivors then restart from the last
// checkpoint in a smaller world (restart); any other failure fails the
// run. The replay is deterministic, so the spectrum is bit-identical to an
// unfaulted run's.
//
// Under Config.KeepTables the run collects the heap before the ranks start
// and again once they have ended. Such a run is the first step of something
// larger — a KCD export, a server — whose peak memory is the run's own or
// what it leaves plus what the caller builds from the tables. The run's big
// transient is the world's send rows (8 B a k-mer), allocated as the ranks
// start and dead when they end: collected before, the caller's garbage makes
// room for the rows instead of lying under them; collected after, the rows
// make room for the caller's database. Left to the collector's own timing the
// same count → MergedTable → FromTable peaked anywhere from 186 to 281 MB.
func runStream(cfg Config, src fastq.Source, resume bool, share int) (*Result, error) {
	ckpt := cfg.Ckpt.Dir != ""
	rp, ok := src.(fastq.Replayer)
	if (ckpt || cfg.BalancedPartition) && !ok {
		return nil, fmt.Errorf("pipeline: checkpointing and balanced partitioning read the input again, which a %T cannot", src)
	}
	var fp recov.Fingerprint
	if ckpt {
		fp = buildFingerprint(cfg, rp.Origin())
	}
	if resume {
		// Nothing to continue is an error here; restart reads it again.
		if _, err := loadCheckpoint(cfg.Ckpt.Dir, fp); err != nil {
			return nil, err
		}
	}
	var destMap []uint16
	if cfg.BalancedPartition {
		var err error
		if destMap, err = buildBalancedMap(cfg, src); err != nil {
			return nil, err
		}
		// Count what was profiled from its start; a resume replays it from
		// the checkpoint's cursor instead (restart).
		if !resume {
			if src, err = rp.Replay(fastq.Cursor{}); err != nil {
				return nil, fmt.Errorf("pipeline: replaying the profiled input: %w", err)
			}
		}
	}
	rs, seats, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}
	spl, err := newSpillCtl(cfg)
	if err != nil {
		return nil, err
	}
	var prod *chunkProducer
	if !resume {
		prod = newChunkProducer(cfg, src, share, len(seats), 0)
	} else if seats, prod, err = restart(cfg, rp, fp, rs.dead, share); err != nil {
		return nil, err
	}
	if cfg.KeepTables {
		runtime.GC()
	}
	for {
		var ck *ckptCtl
		if ckpt {
			ck = newCkptCtl(cfg, fp, prod)
		}
		errs, err := rs.world(destMap, prod, seats, ck, spl)
		if err == nil {
			break
		}
		// The failed world's half-read source is abandoned either way.
		if c, ok := prod.src.(io.Closer); ok {
			c.Close()
		}
		killed, ok := restartable(errs)
		if !ok || !ckpt || cfg.Ckpt.NoShrink {
			return nil, err
		}
		for _, slot := range killed {
			rs.dead[seats[slot].old] = true
		}
		var live []int
		var spans []obs.SpanHandle
		for _, s := range seats {
			if !rs.dead[s.old] {
				live = append(live, s.old)
				spans = append(spans, cfg.Obs.Begin(s.old, -1, obs.PhaseRecovery))
			}
		}
		if seats, prod, err = restart(cfg, rp, fp, rs.dead, share); err != nil {
			return nil, err
		}
		rs.restarts++
		lost := uint64(len(deadList(rs.dead)))
		for i, sp := range spans {
			cfg.Obs.Instant(live[i], -1, obs.EvShrink)
			sp.End(0, lost)
		}
	}
	res := rs.result()
	if cfg.KeepTables {
		runtime.GC()
	}
	res.InputReads, res.InputBases = prod.reads, prod.bases
	res.MemBudget = cfg.MemBudgetBytes
	return res, nil
}

// chunkProducer deals a shared Source to the seats of one world, a whole
// round at a time and in a fixed order. The first seat to ask for round t
// cuts all of it: chunk i goes to the seat in comm slot i and ends at the
// last record boundary within (i+1)·share bases of the round's start (at
// least one record a chunk while the source lasts), so the chunks stay
// even however the read lengths fall, and a preloaded input whose share
// is a 1/P of it is one round. Each chunk's bases are copied once,
// straight into its seat's buffer for the round's parity. Which seat
// parses what is thus a function of the input alone, never of goroutine
// scheduling, and so is every modeled figure of the parse. Every seat's
// more flag says exactly whether records remain after the round, so the
// world runs ⌈chunks/P⌉ rounds. A source error is sticky and surfaces on
// every later deal, failing all ranks rather than silently truncating the
// input. Two buffers a seat, by round parity, suffice: see "Buffer
// lifetimes" on runRounds.
type chunkProducer struct {
	mu    sync.Mutex
	src   fastq.Source
	share int
	next  int // the next round to cut
	// bufs[slot][r%2] holds the bases of round r's chunk for the seat in
	// comm slot — its reads concatenated behind separators, the layout
	// dna.SeqBuffer stages — and more[r%2] whether records remain after
	// round r.
	bufs    [][2][]byte
	more    [2]bool
	pending fastq.Record // pulled, but past its chunk's target: the next chunk's first
	held    bool
	done    bool
	err     error
	reads   uint64 // records pulled (retained past drain for Result)
	bases   uint64
	// track enables checkpoint cursor maintenance (requires src to be a
	// fastq.Replayer); cur is the source position just before the
	// pending record was pulled, i.e. the replay point that re-delivers
	// it.
	track bool
	cur   fastq.Cursor
}

// newChunkProducer deals src to a world of seats seats starting at round
// base, keeping a checkpoint cursor when checkpointing is on.
func newChunkProducer(cfg Config, src fastq.Source, share, seats, base int) *chunkProducer {
	return &chunkProducer{src: src, share: max(share, 1), next: base, bufs: make([][2][]byte, seats), track: cfg.Ckpt.Dir != ""}
}

// deal returns round r's chunk for the seat in comm slot, cutting the round
// if it is the first to ask. The bases stay valid until the seat's parse
// of round r has read them; once the input ends with round r the producer
// lets go of the seat's buffers, so a one-round run does not hold its
// input under the tables its count grows.
func (p *chunkProducer) deal(slot, r int) ([]byte, bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return nil, false, p.err
	}
	if r == p.next {
		if p.err = p.cut(); p.err != nil {
			return nil, false, p.err
		}
		p.next++
	}
	if r < p.next-2 {
		return nil, false, fmt.Errorf("pipeline: round %d dealt after round %d was cut", r, p.next-1)
	}
	bases, more := p.bufs[slot][r%2], p.more[r%2]
	if !more {
		p.bufs[slot] = [2][]byte{}
	}
	return bases, more, nil
}

// cut deals round p.next to every seat.
func (p *chunkProducer) cut() error {
	par, bases := p.next%2, 0
	for i := range p.bufs {
		buf, target := p.bufs[i][par][:0], (i+1)*p.share
		for {
			rec, pos, ok, err := p.pull()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if len(buf) > 0 && bases+len(rec.Seq) > target {
				// Past the chunk's target: hold it for the next chunk.
				p.pending, p.cur, p.held = rec, pos, true
				break
			}
			if len(buf) == 0 {
				// Room for a share of reads as long as the first: a
				// one-round chunk grows once, not by doubling.
				n := max(len(rec.Seq), 1)
				buf = slices.Grow(buf, p.share+n+p.share/n+1)
			}
			buf = append(append(buf, rec.Seq...), dna.SeparatorByte)
			bases += len(rec.Seq)
		}
		p.bufs[i][par] = buf
	}
	// A held record proves the input goes on; the source's end, that it
	// ends with this round.
	p.more[par] = p.held
	return nil
}

// pull returns the held record, else the source's next one, with the
// source position before it (when checkpointing tracks it); ok is false
// once the source has ended. A record's bases are valid until the next
// call, the Source contract: cut copies them before pulling again.
func (p *chunkProducer) pull() (rec fastq.Record, pos fastq.Cursor, ok bool, err error) {
	if p.held {
		p.held = false
		return p.pending, p.cur, true, nil
	}
	if p.done {
		return rec, pos, false, nil
	}
	pos = p.cursor()
	if rec, err = p.src.Next(); err == io.EOF {
		p.done = true
		return rec, pos, false, nil
	} else if err != nil {
		return rec, pos, false, err
	}
	p.reads++
	p.bases += uint64(len(rec.Seq))
	return rec, pos, true, nil
}

// cursor returns the source's position when checkpointing tracks it.
func (p *chunkProducer) cursor() fastq.Cursor {
	if !p.track {
		return fastq.Cursor{}
	}
	return p.src.(fastq.Replayer).Cursor()
}

// ckptCursor returns the resume point as of the last round cut: the
// source position from which a replay re-delivers exactly the records no
// round has carried yet, plus the read/base tallies of everything before
// it. A held record has been pulled from the source but dealt to no round,
// so the cursor steps back over it — otherwise one read per checkpoint
// would vanish on resume.
func (p *chunkProducer) ckptCursor() (c fastq.Cursor, reads, bases uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.held {
		return p.cur, p.reads - 1, p.bases - uint64(len(p.pending.Seq))
	}
	return p.cursor(), p.reads, p.bases
}
