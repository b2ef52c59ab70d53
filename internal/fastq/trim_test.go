package fastq

import (
	"strings"
	"testing"
)

// qual builds a quality string from phred scores.
func qual(scores ...int) []byte {
	out := make([]byte, len(scores))
	for i, s := range scores {
		out[i] = byte(s + PhredOffset)
	}
	return out
}

func TestPhred(t *testing.T) {
	if Phred('!') != 0 || Phred('I') != 40 {
		t.Fatalf("phred decoding wrong: %d %d", Phred('!'), Phred('I'))
	}
}

func TestTrimQualityCleanReadUntouched(t *testing.T) {
	rec := Record{ID: "r", Seq: []byte("ACGTACGT"), Qual: qual(40, 40, 40, 40, 40, 40, 40, 40)}
	got := TrimQuality(rec, 20)
	if string(got.Seq) != "ACGTACGT" {
		t.Fatalf("clean read trimmed to %q", got.Seq)
	}
}

func TestTrimQualityBadTail(t *testing.T) {
	// Last three bases are junk (q=2) — they must go.
	rec := Record{
		ID:   "r",
		Seq:  []byte("ACGTACGTAT"),
		Qual: qual(40, 40, 40, 40, 40, 40, 40, 2, 2, 2),
	}
	got := TrimQuality(rec, 20)
	if string(got.Seq) != "ACGTACG" {
		t.Fatalf("trimmed to %q, want ACGTACG", got.Seq)
	}
	if len(got.Qual) != len(got.Seq) {
		t.Fatal("quality not trimmed in step")
	}
}

func TestTrimQualityBadHead(t *testing.T) {
	rec := Record{
		ID:   "r",
		Seq:  []byte("ATACGTACGT"),
		Qual: qual(2, 2, 40, 40, 40, 40, 40, 40, 40, 40),
	}
	got := TrimQuality(rec, 20)
	if string(got.Seq) != "ACGTACGT" {
		t.Fatalf("trimmed to %q, want ACGTACGT", got.Seq)
	}
}

func TestTrimQualityAllBad(t *testing.T) {
	rec := Record{ID: "r", Seq: []byte("ACGT"), Qual: qual(2, 2, 2, 2)}
	got := TrimQuality(rec, 20)
	if len(got.Seq) != 0 {
		t.Fatalf("all-bad read kept %q", got.Seq)
	}
}

func TestTrimQualityFastaPassthrough(t *testing.T) {
	rec := Record{ID: "r", Seq: []byte("ACGT")}
	got := TrimQuality(rec, 20)
	if string(got.Seq) != "ACGT" {
		t.Fatal("FASTA record modified")
	}
}

func TestTrimAll(t *testing.T) {
	reads := []Record{
		{ID: "keep", Seq: []byte("ACGTACGTAC"), Qual: qual(40, 40, 40, 40, 40, 40, 40, 40, 40, 40)},
		{ID: "short", Seq: []byte("ACGTAT"), Qual: qual(40, 40, 40, 2, 2, 2)},
		{ID: "junk", Seq: []byte("ACGT"), Qual: qual(2, 2, 2, 2)},
	}
	out := TrimAll(reads, 20, 5)
	if len(out) != 1 || out[0].ID != "keep" {
		ids := make([]string, len(out))
		for i, r := range out {
			ids[i] = r.ID
		}
		t.Fatalf("survivors: %s", strings.Join(ids, ","))
	}
}
