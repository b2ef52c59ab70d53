package pipeline

import (
	"fmt"
	"io"
	"sync"

	"dedukt/internal/fastq"
	"dedukt/internal/obs"
)

// RunStream executes the configured pipeline over a streaming source,
// never materializing the dataset: each rank pulls bounded read chunks
// on demand from a shared producer, so the live working set stays under
// Config.MemBudgetBytes (counter tables excluded — they hold the output
// spectrum) regardless of input size. The spectrum is bit-identical to
// Run over the same records: k-mers are routed to their owning rank by
// key hash, so which rank parses a read never changes what is counted.
// The number of rounds is open-ended — ranks agree collectively, via a
// flag on each round's count announcement, when every rank has drained
// (see runRounds).
//
// With Config.Ckpt set, the run persists round-granularity checkpoints
// and survives rank death by restarting the survivors from the last one
// (see runStream and DESIGN.md §12); src must then be a
// fastq.CursorSource.
func RunStream(cfg Config, src fastq.Source) (*Result, error) {
	if err := cfg.Validate(Streaming); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil stream source")
	}
	return runStream(cfg, src)
}

// runStream is the shared core of RunStream and, with a nil src,
// ResumeStream; both have validated cfg. It runs worlds until one
// completes. A failed world ends with all its goroutines returned and
// its source closed (when an io.Closer). When ranks died (restartable),
// checkpointing is on and Ckpt.NoShrink off, the survivors then restart
// from the last checkpoint in a smaller world (restart), exactly as
// ResumeStream starts; any other failure fails the run. The replay is
// deterministic, so the spectrum is bit-identical to an unfaulted run's.
func runStream(cfg Config, src fastq.Source) (*Result, error) {
	rs, seats, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}
	spl, err := newSpillCtl(cfg)
	if err != nil {
		return nil, err
	}
	var prod *chunkProducer
	if src != nil {
		prod = newChunkProducer(cfg, src)
	} else if seats, prod, err = restart(cfg, rs.dead); err != nil {
		return nil, err
	}
	ckpt := cfg.Ckpt.Dir != ""
	for {
		var ck *ckptCtl
		if ckpt {
			if _, ok := prod.src.(fastq.CursorSource); !ok {
				return nil, fmt.Errorf("pipeline: checkpointing needs a source with cursor support (got %T)", prod.src)
			}
			ck = newCkptCtl(cfg, prod)
		}
		sources := make([]chunkSource, len(seats))
		for r := range sources {
			sources[r] = &streamHandle{prod: prod}
		}
		errs, err := rs.world(nil, sources, seats, ck, spl)
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
		if seats, prod, err = restart(cfg, rs.dead); err != nil {
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
	res.Streamed = true
	res.MemBudget = cfg.memBudget()
	res.InputReads = prod.reads
	res.InputBases = prod.bases
	res.Resumed = src == nil
	return res, nil
}

// chunkProducer cuts a shared Source into bounded chunks, handed to rank
// round loops in pull order. The cut points are deterministic — records
// are taken greedily until the next one would push the chunk past
// maxBases (a chunk always holds at least one record, so an oversized
// read still travels; the record that overflowed is retained as pending
// for the next chunk, never dropped) — but which rank receives which
// chunk depends on goroutine scheduling. That is safe because counting
// is partition-invariant: a k-mer's owning rank is a function of its key
// alone. A source error is sticky and surfaces on every subsequent pull,
// failing all ranks rather than silently truncating the input.
type chunkProducer struct {
	mu       sync.Mutex
	src      fastq.Source
	maxBases int
	pending  *fastq.Record // overflow record from the previous chunk
	done     bool
	err      error
	reads    uint64 // records delivered (retained past drain for Result)
	bases    uint64
	// track enables checkpoint cursor maintenance (requires src to be a
	// fastq.CursorSource); cur is the source position just before the
	// pending record was pulled, i.e. the replay point that re-delivers
	// it.
	track bool
	cur   fastq.Cursor
}

// newChunkProducer cuts src into the configured streaming rounds, keeping
// a checkpoint cursor when checkpointing is on.
func newChunkProducer(cfg Config, src fastq.Source) *chunkProducer {
	return &chunkProducer{src: src, maxBases: cfg.streamRoundBases(), track: cfg.Ckpt.Dir != ""}
}

// fill appends the next chunk's records into buf, reporting whether the
// source continues past it. more is exact, not a guess: the producer
// stops filling only when a record is actually in hand that did not fit
// (it becomes pending, proving a next chunk exists) or when the source
// reports EOF.
func (p *chunkProducer) fill(buf *chunkBuf) (more bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return false, p.err
	}
	if p.done && p.pending == nil {
		return false, nil
	}
	bases := 0
	if p.pending != nil {
		bases += len(p.pending.Seq)
		buf.append(*p.pending)
		p.pending = nil
	}
	for !p.done {
		var pos fastq.Cursor
		if p.track {
			pos = p.src.(fastq.CursorSource).Cursor()
		}
		rec, err := p.src.Next()
		if err != nil {
			if err == io.EOF {
				p.done = true
				break
			}
			p.err = err
			return false, err
		}
		p.reads++
		p.bases += uint64(len(rec.Seq))
		if p.maxBases > 0 && bases > 0 && bases+len(rec.Seq) > p.maxBases {
			// Does not fit: retain it (deep-copied — the source reuses
			// its buffers) as the next chunk's first record.
			clone := rec.Clone()
			p.pending = &clone
			p.cur = pos
			return true, nil
		}
		bases += len(rec.Seq)
		buf.append(rec)
	}
	return p.pending != nil, nil
}

// ckptCursor returns the resume point as of the last delivered chunk:
// the source position from which a replay re-delivers exactly the
// records no chunk has carried yet, plus the read/base tallies of
// everything before it. A retained pending record has been pulled from
// the source but delivered to no round, so the cursor steps back over it
// — otherwise one read per checkpoint would vanish on resume.
func (p *chunkProducer) ckptCursor() (c fastq.Cursor, reads, bases uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending != nil {
		return p.cur, p.reads - 1, p.bases - uint64(len(p.pending.Seq))
	}
	return p.src.(fastq.CursorSource).Cursor(), p.reads, p.bases
}

// streamHandle adapts one rank's view of the shared producer to the
// chunkSource interface, owning a reusable chunk buffer so steady-state
// pulls allocate nothing.
type streamHandle struct {
	prod *chunkProducer
	buf  chunkBuf
}

func (h *streamHandle) nextChunk() ([]fastq.Record, bool, error) {
	h.buf.reset()
	more, err := h.prod.fill(&h.buf)
	if err != nil {
		return nil, false, err
	}
	return h.buf.recs, more, nil
}

// chunkBuf accumulates one chunk's records with the sequence bytes in a
// single reusable arena. Only the bases survive the copy: the round loop
// concatenates sequences and never looks at IDs or qualities, so
// dropping them keeps the live per-base footprint minimal.
type chunkBuf struct {
	recs  []fastq.Record
	arena []byte
}

func (b *chunkBuf) reset() {
	b.recs = b.recs[:0]
	b.arena = b.arena[:0]
}

func (b *chunkBuf) append(rec fastq.Record) {
	off := len(b.arena)
	b.arena = append(b.arena, rec.Seq...)
	b.recs = append(b.recs, fastq.Record{Seq: b.arena[off:len(b.arena):len(b.arena)]})
}
