package pipeline

import (
	"fmt"
	"io"
	"sync"

	"dedukt/internal/fastq"
	recov "dedukt/internal/recover"
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
// and survives rank death by shrink recovery (see ResumeStream and
// DESIGN.md §12); src must then be a fastq.CursorSource.
func RunStream(cfg Config, src fastq.Source) (*Result, error) {
	if err := cfg.Validate(Streaming); err != nil {
		return nil, err
	}
	return runStream(cfg, src, nil)
}

// runStream is the shared core of RunStream (man == nil) and
// ResumeStream (man holds the validated checkpoint manifest and src is
// already fast-forwarded to its cursor); both have validated cfg.
func runStream(cfg Config, src fastq.Source, man *recov.Manifest) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("pipeline: nil stream source")
	}
	ckpt := cfg.Ckpt.Dir != ""
	if ckpt {
		if _, ok := src.(fastq.CursorSource); !ok {
			return nil, fmt.Errorf("pipeline: checkpointing needs a source with cursor support (got %T)", src)
		}
	}
	prod := &chunkProducer{src: src, maxBases: cfg.streamRoundBases(), track: ckpt}

	var ck *ckptCtl
	var rv *recoverRT
	var seats []*rankSeat
	if ckpt {
		ck = newCkptCtl(cfg, prod)
		if !cfg.Ckpt.NoShrink {
			rv = &recoverRT{ck: ck, prod: prod, reopen: cfg.Ckpt.Reopen, rec: cfg.Obs}
		}
	}
	world := cfg.Layout.Ranks()
	if man != nil {
		// Resuming: the producer has already delivered the checkpointed
		// prefix in the prior run; seed its tallies so Result reports the
		// whole input, and rebuild the manifest's (possibly shrunk) world.
		prod.reads, prod.bases = man.Reads, man.Bases
		var err error
		seats, err = seatsFromManifest(cfg, man, ck.fphash)
		if err != nil {
			return nil, err
		}
		world = len(seats)
	}
	sources := make([]chunkSource, world)
	for r := range sources {
		sources[r] = &streamHandle{prod: prod}
	}
	spl, err := newSpillCtl(cfg)
	if err != nil {
		return nil, err
	}
	res, err := runWorld(cfg, nil, sources, seats, ck, rv, spl)
	if err != nil {
		return nil, err
	}
	res.Streamed = true
	res.MemBudget = cfg.memBudget()
	res.InputReads = prod.reads
	res.InputBases = prod.bases
	res.Resumed = man != nil
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

// reset re-feeds the producer from a reopened source during shrink
// recovery: the replayed rounds pull from src as if the run had just
// resumed from the checkpoint the cursor came from.
func (p *chunkProducer) reset(src fastq.Source, reads, bases uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.src = src
	p.pending = nil
	p.done = false
	p.err = nil
	p.reads = reads
	p.bases = bases
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
