// Package fastq provides streaming FASTQ and FASTA readers and writers.
//
// The paper's inputs (Table I) are FASTQ files from 792 MB to 317 GB; the
// distributed pipeline partitions them across ranks with parallel I/O
// (§IV-D). This package supplies the equivalent single-machine substrate:
// record-at-a-time streaming with O(record) memory, optional gzip, and a
// partitioner that splits a dataset into per-rank read sets.
package fastq

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Record is a single sequencing read.
type Record struct {
	// ID is the read identifier (text after '@'/'>' up to the first space).
	ID string
	// Seq holds the nucleotide characters.
	Seq []byte
	// Qual holds per-base quality characters (FASTQ only; nil for FASTA).
	Qual []byte
}

// Clone returns a deep copy of r, safe to retain after the next Read call.
func (r Record) Clone() Record {
	return Record{
		ID:   r.ID,
		Seq:  append([]byte(nil), r.Seq...),
		Qual: append([]byte(nil), r.Qual...),
	}
}

// Reader streams records from FASTQ or FASTA input, auto-detected from the
// first byte ('@' → FASTQ, '>' → FASTA).
type Reader struct {
	br     *bufio.Reader
	isQ    bool
	sniffd bool
	line   int
	rec    Record // reused buffers returned by Read
	aux    []byte // reused buffer of the lines Read does not return
}

// NewReader wraps r. Call Read until it returns io.EOF.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (r *Reader) sniff() error {
	b, err := r.br.Peek(1)
	if err != nil {
		return err
	}
	switch b[0] {
	case '@':
		r.isQ = true
	case '>':
		r.isQ = false
	default:
		return fmt.Errorf("fastq: unrecognized leading byte %q", b[0])
	}
	r.sniffd = true
	return nil
}

// readLine appends the next line, without its terminator, to dst and
// returns the extended slice, so a line costs a copy into a buffer the
// reader reuses, never an allocation of its own. A line longer than the
// bufio buffer arrives in pieces (bufio.ErrBufferFull) and accumulates. A
// final line without a newline is a line; the error is returned only when
// no byte was read.
func (r *Reader) readLine(dst []byte) ([]byte, error) {
	start := len(dst)
	for {
		piece, err := r.br.ReadSlice('\n')
		dst = append(dst, piece...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if len(dst) == start {
			return dst, err
		}
		r.line++
		return dst[:start+len(bytes.TrimRight(dst[start:], "\r\n"))], nil
	}
}

// Read returns the next record. The returned record's slices are only valid
// until the next Read; use Clone to retain them. Read returns io.EOF at the
// end of input.
func (r *Reader) Read() (Record, error) {
	if !r.sniffd {
		if err := r.sniff(); err != nil {
			return Record{}, err
		}
	}
	if r.isQ {
		return r.readFastq()
	}
	return r.readFasta()
}

// printable reports whether every byte is graphic ASCII (0x21-0x7e);
// spaceOK additionally admits spaces and tabs (header descriptions).
func printable(b []byte, spaceOK bool) bool {
	for _, c := range b {
		if c >= '!' && c <= '~' {
			continue
		}
		if spaceOK && (c == ' ' || c == '\t') {
			continue
		}
		return false
	}
	return true
}

func parseID(header []byte) string {
	h := string(header[1:])
	if i := strings.IndexAny(h, " \t"); i >= 0 {
		h = h[:i]
	}
	return h
}

func (r *Reader) readFastq() (Record, error) {
	header, err := r.readLine(r.aux[:0])
	r.aux = header
	if err != nil {
		return Record{}, err
	}
	if len(header) == 0 || header[0] != '@' {
		return Record{}, fmt.Errorf("fastq: line %d: expected '@' header, got %q", r.line, header)
	}
	if !printable(header[1:], true) {
		return Record{}, fmt.Errorf("fastq: line %d: non-printable byte in header", r.line)
	}
	// The ID is a copy, so the header's buffer is free for the '+' line.
	id := parseID(header)
	seq, err := r.readLine(r.rec.Seq[:0])
	r.rec.Seq = seq
	if err != nil {
		return Record{}, fmt.Errorf("fastq: line %d: truncated record: %w", r.line, unexpected(err))
	}
	if len(seq) == 0 {
		return Record{}, fmt.Errorf("fastq: line %d: empty sequence", r.line)
	}
	if !printable(seq, false) {
		return Record{}, fmt.Errorf("fastq: line %d: non-printable byte in sequence", r.line)
	}
	plus, err := r.readLine(r.aux[:0])
	r.aux = plus
	if err != nil {
		return Record{}, fmt.Errorf("fastq: line %d: truncated record: %w", r.line, unexpected(err))
	}
	if len(plus) == 0 || plus[0] != '+' {
		return Record{}, fmt.Errorf("fastq: line %d: expected '+' separator, got %q", r.line, plus)
	}
	qual, err := r.readLine(r.rec.Qual[:0])
	r.rec.Qual = qual
	if err != nil {
		return Record{}, fmt.Errorf("fastq: line %d: truncated record: %w", r.line, unexpected(err))
	}
	if len(qual) != len(seq) {
		return Record{}, fmt.Errorf("fastq: line %d: quality length %d != sequence length %d", r.line, len(qual), len(seq))
	}
	if !printable(qual, false) {
		return Record{}, fmt.Errorf("fastq: line %d: non-printable byte in quality string", r.line)
	}
	r.rec.ID = id
	return r.rec, nil
}

func (r *Reader) readFasta() (Record, error) {
	header, err := r.readLine(r.aux[:0])
	r.aux = header
	if err != nil {
		return Record{}, err
	}
	if len(header) == 0 || header[0] != '>' {
		return Record{}, fmt.Errorf("fastq: line %d: expected '>' header, got %q", r.line, header)
	}
	if !printable(header[1:], true) {
		return Record{}, fmt.Errorf("fastq: line %d: non-printable byte in header", r.line)
	}
	r.rec.Seq = r.rec.Seq[:0]
	for {
		b, err := r.br.Peek(1)
		if err == io.EOF || (err == nil && b[0] == '>') {
			break // end of input or next record
		}
		if err != nil {
			// A real read failure (e.g. a truncated gzip member) must not
			// silently shorten the record.
			return Record{}, fmt.Errorf("fastq: line %d: truncated record: %w", r.line, unexpected(err))
		}
		at := len(r.rec.Seq)
		r.rec.Seq, err = r.readLine(r.rec.Seq)
		if err != nil {
			if err == io.EOF {
				break
			}
			return Record{}, fmt.Errorf("fastq: line %d: %w", r.line, err)
		}
		if !printable(r.rec.Seq[at:], false) {
			return Record{}, fmt.Errorf("fastq: line %d: non-printable byte in sequence", r.line)
		}
	}
	if len(r.rec.Seq) == 0 {
		return Record{}, fmt.Errorf("fastq: line %d: empty FASTA record", r.line)
	}
	r.rec.ID = parseID(header)
	r.rec.Qual = nil
	return r.rec, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAll drains the reader, returning deep-copied records.
func ReadAll(r io.Reader) ([]Record, error) {
	fr := NewReader(r)
	var out []Record
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec.Clone())
	}
}

// Open opens a FASTQ/FASTA file, transparently decompressing ".gz" paths.
// The returned closer must be closed by the caller.
func Open(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return NewReader(gz), multiCloser{gz, f}, nil
	}
	return NewReader(f), f, nil
}

type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Writer emits records in FASTQ format (or FASTA when a record has no
// quality string).
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{bw: bufio.NewWriterSize(w, 1<<16)} }

// Write emits one record.
func (w *Writer) Write(rec Record) error {
	var err error
	if rec.Qual != nil {
		_, err = fmt.Fprintf(w.bw, "@%s\n%s\n+\n%s\n", rec.ID, rec.Seq, rec.Qual)
	} else {
		_, err = fmt.Fprintf(w.bw, ">%s\n%s\n", rec.ID, rec.Seq)
	}
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Partition splits records into p per-rank partitions of near-equal total
// base count, mirroring the parallel-I/O assumption in the paper's analysis
// ("the input of size D is partitioned roughly uniformly over P parallel
// processors", §IV-D). It uses longest-processing-time-first (LPT) greedy
// assignment — reads sorted by descending length, each placed on the
// currently lightest rank — which bounds the heaviest rank at 4/3 of
// optimal even with heavy-tailed long-read length distributions.
func Partition(records []Record, p int) [][]Record {
	if p <= 0 {
		panic("fastq: non-positive partition count")
	}
	order := make([]int, len(records))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(records[order[a]].Seq) > len(records[order[b]].Seq)
	})
	parts := make([][]Record, p)
	loads := make([]int, p)
	for _, idx := range order {
		rec := records[idx]
		min := 0
		for i := 1; i < p; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		parts[min] = append(parts[min], rec)
		loads[min] += len(rec.Seq)
	}
	return parts
}
