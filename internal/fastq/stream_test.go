package fastq

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// drainStream pulls a stream dry, cloning records.
func drainStream(t *testing.T, s Source) ([]Record, error) {
	t.Helper()
	var out []Record
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec.Clone())
	}
}

func gzCompress(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenStreamMultiFileGzip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "a.fastq")
	suffixed := filepath.Join(dir, "b.fastq.gz")
	// Gzip content behind a non-.gz name: detection must go by magic
	// bytes, not the suffix.
	unsuffixed := filepath.Join(dir, "c.fastq")
	if err := os.WriteFile(plain, []byte("@r1\nACGT\n+\nIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(suffixed, gzCompress(t, []byte(">r2\nGGCC\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(unsuffixed, gzCompress(t, []byte("@r3\nTTTT\n+\nIIII\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(plain, suffixed, unsuffixed)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs, err := drainStream(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].ID != "r1" || recs[1].ID != "r2" || recs[2].ID != "r3" {
		t.Fatalf("concatenation wrong: %+v", recs)
	}
	if string(recs[1].Seq) != "GGCC" {
		t.Fatalf("gzip record decoded wrong: %q", recs[1].Seq)
	}
	if s.Reads() != 3 || s.Bases() != 12 {
		t.Fatalf("tallies %d/%d, want 3/12", s.Reads(), s.Bases())
	}
}

func TestOpenStreamMissingFile(t *testing.T) {
	if _, err := OpenStream(filepath.Join(t.TempDir(), "nope.fastq")); err == nil {
		t.Fatal("missing file must fail fast at OpenStream")
	}
	if _, err := OpenStream(); err == nil {
		t.Fatal("no paths must be rejected")
	}
}

func TestStreamSkipsEmptyInputs(t *testing.T) {
	s := NewStream(
		Input{Name: "empty1", R: bytes.NewReader(nil)},
		Input{Name: "data", R: bytes.NewReader([]byte(">r\nACGT\n"))},
		Input{Name: "empty2", R: bytes.NewReader(nil)},
	)
	recs, err := drainStream(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "r" {
		t.Fatalf("got %+v", recs)
	}
}

func TestStreamConcatenatedGzipMembers(t *testing.T) {
	// Two gzip members back to back in one input — the standard output
	// of `cat a.gz b.gz` — must decompress as one stream.
	raw := append(gzCompress(t, []byte("@r1\nAC\n+\nII\n")), gzCompress(t, []byte("@r2\nGT\n+\nII\n"))...)
	s := NewStream(Input{Name: "multi", R: bytes.NewReader(raw)})
	recs, err := drainStream(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "r1" || recs[1].ID != "r2" {
		t.Fatalf("multistream gzip wrong: %+v", recs)
	}
}

func TestStreamTruncatedGzip(t *testing.T) {
	// FASTQ and FASTA content, truncated mid-member: both must surface a
	// structured error naming the input — never a silently shortened
	// read set (the FASTA case regresses if readFasta swallows read
	// errors again).
	for _, content := range []string{
		"@r1\nACGT\n+\nIIII\n@r2\nGGGG\n+\nIIII\n",
		">r1\nACGT\n>r2\nGGGG\n",
	} {
		full := gzCompress(t, []byte(content))
		s := NewStream(Input{Name: "trunc", R: bytes.NewReader(full[:len(full)-6])})
		_, err := drainStream(t, s)
		var ie *InputError
		if !errors.As(err, &ie) || ie.Input != "trunc" {
			t.Fatalf("want InputError for truncated gzip of %q, got %v", content[:3], err)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("want io.ErrUnexpectedEOF cause, got %v", err)
		}
	}
}

func TestStreamMidRecordEOF(t *testing.T) {
	s := NewStream(Input{Name: "cut", R: bytes.NewReader([]byte("@r\nACGT\n+\n"))})
	_, err := drainStream(t, s)
	var ie *InputError
	if !errors.As(err, &ie) {
		t.Fatalf("want structured error, got %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want truncated-record cause, got %v", err)
	}
	// Sticky: the stream does not resume past a failure.
	if _, again := s.Next(); !errors.Is(again, err) {
		t.Fatalf("error not sticky: %v", again)
	}
}

func TestStreamCRLF(t *testing.T) {
	s := NewStream(Input{Name: "crlf", R: bytes.NewReader([]byte("@r\r\nACGT\r\n+\r\nIIII\r\n"))})
	recs, err := drainStream(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Seq) != "ACGT" {
		t.Fatalf("CRLF input parsed wrong: %+v", recs)
	}
}

func TestSliceSource(t *testing.T) {
	recs := []Record{{ID: "a", Seq: []byte("AC")}, {ID: "b", Seq: []byte("GT")}}
	got, err := drainStream(t, NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("got %+v", got)
	}
}

// TestDrainCopiesOnlyBorrowedRecords: Drain keeps a SliceSource's records,
// and a trim of them, without a copy — they are already the caller's — but
// copies a Stream's, whose buffers the next record reuses.
func TestDrainCopiesOnlyBorrowedRecords(t *testing.T) {
	recs := []Record{{ID: "a", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIII$")}}
	for name, src := range map[string]Source{
		"slice": NewSliceSource(recs),
		"trim":  NewTrimSource(NewSliceSource(recs), 20, 5),
	} {
		got, err := Drain(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || &got[0].Seq[0] != &recs[0].Seq[0] {
			t.Errorf("%s: Drain copied the caller's records", name)
		}
	}
	path := filepath.Join(t.TempDir(), "r.fastq")
	if err := os.WriteFile(path, []byte("@a\nACGT\n+\nIIII\n@b\nTTGG\n+\nIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0].Seq) != "ACGT" || string(got[1].Seq) != "TTGG" {
		t.Fatalf("drained stream: %+v", got)
	}
}

// TestTrimSource: every record is quality-trimmed, and a read trimmed
// shorter than minLen is dropped.
func TestTrimSource(t *testing.T) {
	reads := []Record{
		{ID: "keep", Seq: []byte("ACGTACGT"), Qual: []byte("IIIIIII$")},
		{ID: "drop", Seq: []byte("ACGT"), Qual: []byte("$$$$")},
	}
	got, err := drainStream(t, NewTrimSource(NewSliceSource(reads), 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{ID: "keep", Seq: []byte("ACGTACG")}}
	if len(got) != len(want) {
		t.Fatalf("trim stream kept %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Seq, want[i].Seq) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// closeRecorder is a cursor-capable source that records being closed.
type closeRecorder struct {
	*SliceSource
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

// TestTrimSourceForwardsClose: closing a trimmed source closes the source
// under it, so a trimmed file stream abandoned mid-read releases its file.
func TestTrimSourceForwardsClose(t *testing.T) {
	raw := &closeRecorder{SliceSource: NewSliceSource(nil)}
	trimmed := NewTrimSource(raw, 20, 5)
	if _, ok := trimmed.(Replayer); !ok {
		t.Fatal("trimming a replayable source lost its replay")
	}
	c, ok := trimmed.(io.Closer)
	if !ok {
		t.Fatal("a trimmed source has no Close")
	}
	if err := c.Close(); err != nil || !raw.closed {
		t.Fatalf("Close = %v, source closed %v", err, raw.closed)
	}
}

// TestReplay: every Replayer — a file stream, a slice, a trim of either —
// replays from a cursor it reported exactly the records it had not yet
// delivered, and names its origin: the files with their sizes, and the trim
// rule. A stream over readers is no Replayer.
func TestReplay(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.fastq"), filepath.Join(dir, "b.fastq.gz")
	fqA := "@r1\nACGTAC\n+\nIIIIII\n@r2\nGGCCAA\n+\nII$$$$\n"
	if err := os.WriteFile(a, []byte(fqA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, gzCompress(t, []byte("@r3\nTTTTGG\n+\nIIIIII\n@r4\nCCAA\n+\n$$$$\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	files := []File{{Path: a, Size: int64(len(fqA))}, {Path: b, Size: fi.Size()}}
	recs, err := ReadAll(strings.NewReader(fqA))
	if err != nil {
		t.Fatal(err)
	}
	open := func() Replayer {
		s, err := OpenStream(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, c := range []struct {
		name   string
		src    func() Replayer
		origin Origin
	}{
		{"stream", open, Origin{Files: files}},
		{"slice", func() Replayer { return NewSliceSource(recs) }, Origin{}},
		{"trimmed-stream", func() Replayer { return NewTrimSource(open(), 20, 3).(Replayer) }, Origin{Files: files, MinQ: 20, MinLen: 3}},
		{"trimmed-slice", func() Replayer { return NewTrimSource(NewSliceSource(recs), 20, 3).(Replayer) }, Origin{MinQ: 20, MinLen: 3}},
	} {
		src := c.src()
		if got := src.Origin(); !reflect.DeepEqual(got, c.origin) {
			t.Errorf("%s: origin %+v, want %+v", c.name, got, c.origin)
		}
		var cursors []Cursor
		var ids []string
		for {
			cursors = append(cursors, src.Cursor())
			rec, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, rec.ID)
		}
		for i, cur := range cursors {
			r, err := src.Replay(cur)
			if err != nil {
				t.Fatalf("%s: replay from %+v: %v", c.name, cur, err)
			}
			got, err := drainStream(t, r)
			if err != nil {
				t.Fatal(err)
			}
			var gotIDs []string
			for _, rec := range got {
				gotIDs = append(gotIDs, rec.ID)
			}
			if !slices.Equal(gotIDs, ids[i:]) {
				t.Errorf("%s: replay from %+v delivered %v, want %v", c.name, cur, gotIDs, ids[i:])
			}
		}
		if _, err := src.Replay(Cursor{Input: 5}); err == nil {
			t.Errorf("%s: replay from a cursor past the input succeeded", c.name)
		}
	}
	if _, ok := NewStream(Input{Name: "r", R: strings.NewReader(fqA)}).(Replayer); ok {
		t.Error("a stream over readers claims to replay")
	}
}
