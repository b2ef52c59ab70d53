package fastq

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

const sampleFastq = `@read1 some description
ACGTACGT
+
IIIIIIII
@read2
GGGG
+
!!!!
`

const sampleFasta = `>chr1 the first
ACGTACGT
GGGG
>chr2
TTTT
`

func TestReadFastq(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(sampleFastq))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "read1" || string(recs[0].Seq) != "ACGTACGT" || string(recs[0].Qual) != "IIIIIIII" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[1].ID != "read2" || string(recs[1].Seq) != "GGGG" {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestReadFasta(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(sampleFasta))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].ID != "chr1" || string(recs[0].Seq) != "ACGTACGTGGGG" {
		t.Errorf("record 0 = %+v", recs[0])
	}
	if recs[0].Qual != nil {
		t.Error("FASTA record should have nil quality")
	}
	if recs[1].ID != "chr2" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("record 1 = %+v", recs[1])
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad leading byte": "XACGT\n",
		"missing plus":     "@r\nACGT\nACGT\nIIII\n",
		"qual mismatch":    "@r\nACGT\n+\nII\n",
		"truncated":        "@r\nACGT\n+\n",
		"empty fasta":      ">r\n>r2\nAC\n",
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestEmptyInputIsEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("got %v, want EOF", err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	recs, _ := ReadAll(strings.NewReader(sampleFastq))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].ID != recs[i].ID || !bytes.Equal(back[i].Seq, recs[i].Seq) || !bytes.Equal(back[i].Qual, recs[i].Qual) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, back[i], recs[i])
		}
	}
}

func TestWriterFasta(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{ID: "x", Seq: []byte("ACGT")}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if got := buf.String(); got != ">x\nACGT\n" {
		t.Fatalf("got %q", got)
	}
}

func TestPartitionBalance(t *testing.T) {
	var recs []Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, Record{ID: "r", Seq: make([]byte, 50+i%100)})
	}
	const p = 7
	parts := Partition(recs, p)
	if len(parts) != p {
		t.Fatalf("%d partitions", len(parts))
	}
	total, max, min := 0, 0, 1<<62
	for _, part := range parts {
		bases := 0
		for _, r := range part {
			bases += len(r.Seq)
		}
		total += bases
		if bases > max {
			max = bases
		}
		if bases < min {
			min = bases
		}
	}
	want := 0
	for _, r := range recs {
		want += len(r.Seq)
	}
	if total != want {
		t.Fatalf("partition lost bases: %d != %d", total, want)
	}
	if float64(max)/(float64(total)/p) > 1.05 {
		t.Fatalf("partition imbalance too high: min %d max %d", min, max)
	}
}

func TestPartitionPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Partition(nil, 0)
}

func TestCloneIndependence(t *testing.T) {
	r := NewReader(strings.NewReader(sampleFastq))
	rec1, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	keep := rec1.Clone()
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if string(keep.Seq) != "ACGTACGT" {
		t.Fatalf("clone corrupted by subsequent read: %q", keep.Seq)
	}
}

// TestReadLongLines: lines longer than the reader's 64 KiB buffer arrive in
// pieces and must be reassembled whole — in FASTQ (sequence and quality) and
// in FASTA (one long line among short ones) — and the records on either side
// of the long one must be untouched by its accumulation.
func TestReadLongLines(t *testing.T) {
	long := strings.Repeat("ACGTTGCA", (3<<16)/8+5) // 3 buffers and a bit
	qual := strings.Repeat("I", len(long))
	fq := "@short1\nACGT\n+\nIIII\n@long\n" + long + "\n+\n" + qual + "\n@short2\nGG\n+\n!!\n"
	recs, err := ReadAll(strings.NewReader(fq))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[1].ID != "long" || string(recs[1].Seq) != long || string(recs[1].Qual) != qual {
		t.Errorf("long record: id %q, %d bases, %d qualities, want %d of each", recs[1].ID, len(recs[1].Seq), len(recs[1].Qual), len(long))
	}
	if string(recs[0].Seq) != "ACGT" || string(recs[2].Seq) != "GG" || string(recs[2].Qual) != "!!" {
		t.Errorf("neighbours of the long record: %+v, %+v", recs[0], recs[2])
	}

	fa := ">chr1\nACGT\n" + long + "\nGG\n>chr2\nTTTT\n"
	recs, err = ReadAll(strings.NewReader(fa))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Seq) != "ACGT"+long+"GG" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("FASTA with a long line: %d records", len(recs))
	}
}

// TestReadCRLF: Windows line endings are stripped from every line — and
// only from the line's end, whether or not the input ends in a newline.
func TestReadCRLF(t *testing.T) {
	for _, tail := range []string{"\r\n", ""} {
		fq := "@read1 desc\r\nACGTACGT\r\n+\r\nIIIIIIII\r\n@read2\r\nGGGG\r\n+\r\n!!!!" + tail
		recs, err := ReadAll(strings.NewReader(fq))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 ||
			recs[0].ID != "read1" || string(recs[0].Seq) != "ACGTACGT" || string(recs[0].Qual) != "IIIIIIII" ||
			recs[1].ID != "read2" || string(recs[1].Seq) != "GGGG" || string(recs[1].Qual) != "!!!!" {
			t.Errorf("CRLF FASTQ (tail %q) = %+v", tail, recs)
		}
	}
	recs, err := ReadAll(strings.NewReader(">chr1 x\r\nACGT\r\nGG\r\n>chr2\r\nTTTT\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != "chr1" || string(recs[0].Seq) != "ACGTGG" || string(recs[1].Seq) != "TTTT" {
		t.Errorf("CRLF FASTA = %+v", recs)
	}
}

// TestReadAllocatesPerRecordNotPerLine pins the reader's allocation cost: a
// record is its ID string and nothing else — the lines land in buffers the
// reader reuses. One allocation per line (bufio's ReadBytes) was 55 % of a
// streamed run's allocations.
func TestReadAllocatesPerRecordNotPerLine(t *testing.T) {
	var text bytes.Buffer
	w := NewWriter(&text)
	const n = 500
	for i := 0; i < n; i++ {
		if err := w.Write(Record{ID: "read", Seq: bytes.Repeat([]byte("ACGT"), 50), Qual: bytes.Repeat([]byte("I"), 200)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		r := NewReader(bytes.NewReader(text.Bytes()))
		for {
			if _, err := r.Read(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
	})
	// n ID strings, plus the reader, its bufio buffer and the first growth
	// of its three line buffers.
	if allocs > n+20 {
		t.Fatalf("%.0f allocations for %d records, want about one each", allocs, n)
	}
}
