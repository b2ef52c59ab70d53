package dedukt_test

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"

	"dedukt"
)

func TestFacadeCountQuick(t *testing.T) {
	d, err := dedukt.DatasetByName("A. baumannii 30X")
	if err != nil {
		t.Fatal(err)
	}
	reads, err := d.Reads(0.05)
	if err != nil {
		t.Fatal(err)
	}
	opts := dedukt.DefaultOptions(1)
	if err := dedukt.Validate(opts); err != nil {
		t.Fatal(err)
	}
	res, err := dedukt.Count(reads, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalKmers == 0 || res.DistinctKmers == 0 {
		t.Fatalf("nothing counted: %+v", res)
	}
	if res.Histogram.Total() != res.TotalKmers {
		t.Fatal("histogram inconsistent with totals")
	}
}

func TestFacadeKmerRoundTrip(t *testing.T) {
	w, err := dedukt.ParseKmer("GATTACAGATTACA")
	if err != nil {
		t.Fatal(err)
	}
	if got := dedukt.KmerString(w, 14); got != "GATTACAGATTACA" {
		t.Fatalf("round trip = %q", got)
	}
	if _, err := dedukt.ParseKmer("GANTT"); err == nil {
		t.Fatal("invalid base should error")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(dedukt.Datasets()) != 6 {
		t.Fatal("expected the six Table I datasets")
	}
	if _, err := dedukt.DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestFacadeLayouts(t *testing.T) {
	if dedukt.SummitGPU(16).Ranks() != 96 {
		t.Fatal("GPU layout ranks wrong")
	}
	if dedukt.SummitCPU(16).Ranks() != 672 {
		t.Fatal("CPU layout ranks wrong")
	}
}

func TestFacadeOrderings(t *testing.T) {
	for _, name := range []string{"value", "kmc2", "hashed"} {
		if _, err := dedukt.OrderingByName(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dedukt.OrderingByName("bogus"); err == nil {
		t.Fatal("unknown ordering should error")
	}
}

func TestFacadeReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.fastq")
	if err := os.WriteFile(path, []byte("@r1\nACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reads, err := dedukt.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || string(reads[0].Seq) != "ACGTACGTACGTACGTACGT" {
		t.Fatalf("reads = %+v", reads)
	}
	if _, err := dedukt.ReadFile(filepath.Join(dir, "missing.fastq")); err == nil {
		t.Fatal("missing file should error")
	}
	// Gzip is told by magic bytes, not by the name: gzip content without a
	// ".gz" suffix, and plain content with one, both read.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("@r2\nGGGGCCCCAAAATTTTACGT\n+\nIIIIIIIIIIIIIIIIIIII\n"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"gzip.fastq":  gz.Bytes(),
		"plain.fq.gz": []byte(">r3\nACGTACGTACGTACGTACGT\n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		reads, err := dedukt.ReadFile(filepath.Join(dir, name))
		if err != nil || len(reads) != 1 || len(reads[0].Seq) != 20 {
			t.Fatalf("%s: reads = %+v, %v", name, reads, err)
		}
	}
}

func TestFacadeModesDiffer(t *testing.T) {
	if dedukt.KmerMode == dedukt.SupermerMode {
		t.Fatal("modes must differ")
	}
	if dedukt.KmerMode.String() != "kmer" || dedukt.SupermerMode.String() != "supermer" {
		t.Fatal("mode names wrong")
	}
}
