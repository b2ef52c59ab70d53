package fastq

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// Source streams records one at a time: the out-of-core counterpart of a
// preloaded []Record. Next returns io.EOF after the last record and a
// non-nil error on malformed input; like Reader.Read, the returned
// record's slices are only valid until the next call — callers that
// retain a record must Clone it. Implementations need not be safe for
// concurrent use; the pipeline serializes pulls behind one producer lock.
type Source interface {
	Next() (Record, error)
}

// Cursor marks a resumable position in a record stream: the next
// undelivered record is record number Record (0-based) of input number
// Input. The zero Cursor is the start of the stream. Cursors address
// records, not byte offsets — gzip inputs have no random access, so a
// resume re-parses and discards the records before the cursor (see
// Stream.Replay).
type Cursor struct {
	Input  int
	Record uint64
}

// Replayer is a Source that can be read again: Replay opens a fresh source
// over the same records from any cursor the source reported, and Origin
// names those records. The pipeline replays its input to restart or resume
// from a checkpoint and to count what balanced partitioning profiled, and
// fingerprints a checkpoint by the Origin. A Stream opened from paths, a
// SliceSource and a trim of either are Replayers; a stream over readers,
// which can be read once, is not.
type Replayer interface {
	Source
	// Cursor reports the position of the next undelivered record. Capture
	// it between Next calls.
	Cursor() Cursor
	// Replay opens a fresh source that delivers exactly the records from c
	// on; a cursor past the records (a changed or truncated file) is an
	// error, never a silently shifted replay.
	Replay(c Cursor) (Replayer, error)
	// Origin names where the records come from.
	Origin() Origin
}

// Origin names a replayable source's records: the files they are read from
// (none for records already in memory) and the quality trim applied to them
// (zero when untrimmed; see NewTrimSource). A checkpoint taken over one
// origin does not resume over another.
type Origin struct {
	Files        []File
	MinQ, MinLen int
}

// File names one input file by its path and its size when opened.
type File struct {
	Path string `json:"path"`
	Size int64  `json:"size"`
}

// Drain reads src to its end and returns its records, deep-copied unless
// they already belong to the caller (a SliceSource's, or a trim of one).
func Drain(src Source) ([]Record, error) {
	owned, _ := src.(ownedSource)
	copyRecs := owned == nil || !owned.owned()
	var out []Record
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if copyRecs {
			rec = rec.Clone()
		}
		out = append(out, rec)
	}
}

// ownedSource is a Source that can tell whether its records stay valid
// after the next call, so that Drain need not copy them.
type ownedSource interface{ owned() bool }

// SliceSource adapts an in-memory read set to the Source interface.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource streams recs in order.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next returns the next record or io.EOF.
func (s *SliceSource) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	rec := s.recs[s.i]
	s.i++
	return rec, nil
}

// Cursor reports the position of the next undelivered record (a
// SliceSource is a single input, so Cursor.Input is always 0).
func (s *SliceSource) Cursor() Cursor { return Cursor{Record: uint64(s.i)} }

// Replay returns a SliceSource over the same records from c on.
func (s *SliceSource) Replay(c Cursor) (Replayer, error) {
	if c.Input != 0 || c.Record > uint64(len(s.recs)) {
		return nil, fmt.Errorf("fastq: cursor input %d record %d outside a %d-record slice source", c.Input, c.Record, len(s.recs))
	}
	return &SliceSource{recs: s.recs, i: int(c.Record)}, nil
}

// Origin names no files: the records are the caller's, in memory.
func (s *SliceSource) Origin() Origin { return Origin{} }

// owned reports that the records are the caller's own slice.
func (s *SliceSource) owned() bool { return true }

// Input is one named reader feeding a Stream; Name labels errors.
type Input struct {
	Name string
	R    io.Reader
}

// InputError attributes a stream failure to one input of a multi-input
// Stream. Unwrap exposes the underlying cause (parse errors keep their
// line numbers; truncated gzip members surface io.ErrUnexpectedEOF).
type InputError struct {
	// Input is the failing input's name (the file path for OpenStream).
	Input string
	// Err is the underlying failure.
	Err error
}

func (e *InputError) Error() string { return fmt.Sprintf("fastq: input %s: %v", e.Input, e.Err) }

// Unwrap returns the underlying error.
func (e *InputError) Unwrap() error { return e.Err }

// Stream concatenates the records of a sequence of FASTQ/FASTA inputs,
// decompressing gzip inputs detected by their magic bytes (0x1f 0x8b) —
// the detection is per input, so plain and compressed files mix freely
// and a ".gz" suffix is not required. Concatenated gzip members within
// one input decompress as one stream (gzip multistream), and a
// truncated member is an error, never a silently shortened read set.
// Every non-EOF error is an *InputError naming the offending input, and
// errors are sticky: once Next fails, it keeps returning the same error.
type Stream struct {
	inputs   []Input
	paths    []string // lazily opened when non-nil; nil for NewStream
	sizes    []int64  // each path's size when OpenStream stat'ed it
	cur      int      // next input index
	curInput int      // index of the currently open input
	curRecs  uint64   // records delivered from the currently open input
	name     string   // current input name, for error attribution
	r        *Reader
	file     io.Closer // open file backing the current input (paths mode)
	reads    uint64
	bases    uint64
	err      error // sticky terminal error (never io.EOF)
}

// NewStream streams the given inputs in order. Empty inputs are skipped.
// Readers are read once, so the stream is no Replayer.
func NewStream(inputs ...Input) Source { return readOnce{&Stream{inputs: inputs}} }

// readOnce shows a Stream over readers as a plain Source.
type readOnce struct{ s *Stream }

func (r readOnce) Next() (Record, error) { return r.s.Next() }

// OpenStream opens the given files as one concatenated stream. Every
// path is stat'ed up front so a missing file fails fast, but files are
// opened lazily, one at a time, and closed as they drain — a
// thousand-file dataset holds one descriptor. Close releases the
// currently open file when the stream is abandoned early.
func OpenStream(paths ...string) (*Stream, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("fastq: no input paths")
	}
	sizes := make([]int64, len(paths))
	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		sizes[i] = fi.Size()
	}
	return &Stream{paths: paths, sizes: sizes}, nil
}

// Replay opens the stream's files afresh and fast-forwards them to c (see
// seek).
func (s *Stream) Replay(c Cursor) (Replayer, error) {
	r, err := OpenStream(s.paths...)
	if err != nil {
		return nil, err
	}
	if err := r.seek(c); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Origin names the stream's files with their sizes when it was opened.
func (s *Stream) Origin() Origin {
	files := make([]File, len(s.paths))
	for i, p := range s.paths {
		files[i] = File{Path: p, Size: s.sizes[i]}
	}
	return Origin{Files: files}
}

// Next returns the next record across all inputs, or io.EOF after the
// last input drains.
func (s *Stream) Next() (Record, error) {
	if s.err != nil {
		return Record{}, s.err
	}
	for {
		if s.r == nil {
			if err := s.advance(); err != nil {
				if err != io.EOF {
					s.err = err
				}
				return Record{}, err
			}
		}
		rec, err := s.r.Read()
		if err == nil {
			s.reads++
			s.curRecs++
			s.bases += uint64(len(rec.Seq))
			return rec, nil
		}
		if err == io.EOF {
			s.r = nil
			s.closeCurrent()
			continue // next input
		}
		s.err = &InputError{Input: s.name, Err: err}
		return Record{}, s.err
	}
}

// Reads and Bases report the records and bases delivered so far.
func (s *Stream) Reads() uint64 { return s.reads }
func (s *Stream) Bases() uint64 { return s.bases }

// Cursor reports the resume position of the next undelivered record.
// Capture it between Next calls; Replay from it then delivers exactly the
// records not yet returned.
func (s *Stream) Cursor() Cursor {
	if s.r == nil {
		return Cursor{Input: s.cur}
	}
	return Cursor{Input: s.curInput, Record: s.curRecs}
}

// seek fast-forwards a freshly opened stream to a cursor previously
// captured by Cursor: files before c.Input are skipped without being
// opened, and c.Record records of file c.Input are parsed and discarded
// (records are not byte-addressable — gzip inputs have no random access).
// Skipped records do not count toward Reads/Bases. A cursor pointing past
// the file's actual records is an error (a changed or truncated file must
// fail the resume, never silently shift it).
func (s *Stream) seek(c Cursor) error {
	n := len(s.paths)
	if c.Input < 0 || c.Input > n {
		return fmt.Errorf("fastq: cursor input %d outside this stream's %d inputs", c.Input, n)
	}
	s.cur = c.Input
	if c.Record == 0 {
		return nil
	}
	if c.Input == n {
		return fmt.Errorf("fastq: cursor claims %d records past the last input", c.Record)
	}
	if err := s.advance(); err != nil {
		if err == io.EOF {
			return fmt.Errorf("fastq: cursor input %d: no records remain", c.Input)
		}
		s.err = err
		return err
	}
	if s.curInput != c.Input {
		// advance skips empty inputs; a cursor with records into one is
		// stale (the file changed since the checkpoint).
		return fmt.Errorf("fastq: cursor claims %d records in input %d, which is empty", c.Record, c.Input)
	}
	for i := uint64(0); i < c.Record; i++ {
		if _, err := s.r.Read(); err != nil {
			if err == io.EOF {
				return fmt.Errorf("fastq: cursor record %d past the end of input %s", c.Record, s.name)
			}
			s.err = &InputError{Input: s.name, Err: err}
			return s.err
		}
	}
	s.curRecs = c.Record
	return nil
}

// Close releases the currently open file, if any. Safe to call at any
// point; Next after Close reopens nothing (drained inputs stay drained,
// the current input restarts is not supported — Close is for abandoning
// a stream early or after io.EOF).
func (s *Stream) Close() error {
	if s.file == nil {
		return nil
	}
	err := s.file.Close()
	s.file = nil
	return err
}

func (s *Stream) closeCurrent() {
	if s.file != nil {
		s.file.Close()
		s.file = nil
	}
}

// advance opens the next non-empty input, returning io.EOF when none
// remain.
func (s *Stream) advance() error {
	for {
		var raw io.Reader
		if s.paths != nil {
			if s.cur >= len(s.paths) {
				return io.EOF
			}
			s.name = s.paths[s.cur]
			f, err := os.Open(s.name)
			if err != nil {
				s.cur++
				return &InputError{Input: s.name, Err: err}
			}
			s.file = f
			raw = f
		} else {
			if s.cur >= len(s.inputs) {
				return io.EOF
			}
			s.name = s.inputs[s.cur].Name
			raw = s.inputs[s.cur].R
		}
		s.cur++
		r, empty, err := sniffGzip(raw)
		if err != nil {
			s.closeCurrent()
			return &InputError{Input: s.name, Err: err}
		}
		if empty {
			s.closeCurrent()
			continue
		}
		s.r = NewReader(r)
		s.curInput = s.cur - 1
		s.curRecs = 0
		return nil
	}
}

// sniffGzip peeks the input's first two bytes and wraps it in a gzip
// decompressor when they are the gzip magic. empty reports an input with
// no bytes at all (skipped by the stream, like an empty file).
func sniffGzip(raw io.Reader) (r io.Reader, empty bool, err error) {
	br := bufio.NewReaderSize(raw, 1<<15)
	magic, err := br.Peek(2)
	if err == io.EOF {
		// Zero or one byte: no gzip member fits. Empty inputs are
		// skipped; a lone byte goes to the parser, which reports it.
		if len(magic) == 0 {
			return nil, true, nil
		}
		return br, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, false, err
		}
		return gz, false, nil
	}
	return br, false, nil
}

// trimSource wraps a Source with per-record quality trimming.
type trimSource struct {
	src    Source
	minQ   int
	minLen int
}

// NewTrimSource returns a Source that quality-trims every record of src
// (see TrimQuality) and drops records whose trimmed sequence is shorter
// than minLen. When src is a Replayer the returned source is one too: its
// cursors are src's, since trimming is deterministic per raw record,
// replaying trims src's replay alike, and its Origin adds the trim rule.
func NewTrimSource(src Source, minQ, minLen int) Source {
	t := &trimSource{src: src, minQ: minQ, minLen: minLen}
	if r, ok := src.(Replayer); ok {
		return &trimReplayer{trimSource: t, r: r}
	}
	return t
}

// trimReplayer is a trimSource over a replayable source.
type trimReplayer struct {
	*trimSource
	r Replayer
}

func (t *trimReplayer) Cursor() Cursor { return t.r.Cursor() }

func (t *trimReplayer) Replay(c Cursor) (Replayer, error) {
	r, err := t.r.Replay(c)
	if err != nil {
		return nil, err
	}
	return NewTrimSource(r, t.minQ, t.minLen).(Replayer), nil
}

func (t *trimReplayer) Origin() Origin {
	o := t.r.Origin()
	o.MinQ, o.MinLen = t.minQ, t.minLen
	return o
}

// Close closes src when it is an io.Closer, so abandoning a trimmed file
// stream releases its file.
func (t *trimSource) Close() error {
	if c, ok := t.src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// owned reports whether src's records are the caller's: a trim only
// re-slices them.
func (t *trimSource) owned() bool {
	o, ok := t.src.(ownedSource)
	return ok && o.owned()
}

func (t *trimSource) Next() (Record, error) {
	for {
		rec, err := t.src.Next()
		if err != nil {
			return rec, err
		}
		trimmed := TrimQuality(rec, t.minQ)
		if len(trimmed.Seq) >= t.minLen {
			return trimmed, nil
		}
	}
}
