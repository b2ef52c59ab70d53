package kcount

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/durable"
)

// TestDatabaseTruncationErrors pins the error classification of short
// streams: every truncation point — mid-magic, mid-header, mid-entry,
// mid-checksum — must surface durable.ErrTruncated, never a bare EOF or a
// misleading structural error.
func TestDatabaseTruncationErrors(t *testing.T) {
	d := sampleDB(t, 200, 104)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cuts := map[string]int{
		"empty":          0,
		"short magic":    2,
		"short header":   4 + 7,             // inside the fixed header
		"no entries":     4 + 16,            // header complete, first entry missing
		"mid entry":      4 + 16 + 12*3 + 5, // inside the 4th entry
		"no checksum":    len(good) - 4,     // all entries, checksum absent
		"short checksum": len(good) - 2,     // checksum half-written
	}
	for name, cut := range cuts {
		_, err := ReadDatabase(bytes.NewReader(good[:cut]))
		if !errors.Is(err, durable.ErrTruncated) {
			t.Errorf("%s (cut at %d): got %v, want durable.ErrTruncated", name, cut, err)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: raw EOF leaked through: %v", name, err)
		}
		// The streaming reader must classify identically.
		if _, _, serr := StreamDatabase(bytes.NewReader(good[:cut]), func(uint64, uint32) error { return nil }); !errors.Is(serr, durable.ErrTruncated) {
			t.Errorf("%s: StreamDatabase got %v, want durable.ErrTruncated", name, serr)
		}
	}
}

// TestDatabaseChecksumErrors flips single bytes and checks the CRC (or a
// structural check that fires first) rejects the stream; a flip confined to
// the trailing CRC itself must be reported as durable.ErrChecksum.
func TestDatabaseChecksumErrors(t *testing.T) {
	d := sampleDB(t, 200, 105)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	for _, pos := range []int{len(good) - 1, len(good) - 4} {
		data := append([]byte(nil), good...)
		data[pos] ^= 0x01
		_, err := ReadDatabase(bytes.NewReader(data))
		if !errors.Is(err, durable.ErrChecksum) {
			t.Errorf("flipped CRC byte %d: got %v, want durable.ErrChecksum", pos, err)
		}
	}

	// A flipped count byte leaves the key order intact, so only the CRC
	// catches it. (Entry layout: 8 key bytes then 4 count bytes.)
	data := append([]byte(nil), good...)
	firstCount := 4 + 16 + 8
	data[firstCount] ^= 0x01
	if _, err := ReadDatabase(bytes.NewReader(data)); !errors.Is(err, durable.ErrChecksum) {
		t.Errorf("flipped count byte: got %v, want durable.ErrChecksum", err)
	}

	// Truncation takes precedence over checksum: a short file is reported
	// as truncated even though its CRC cannot match either.
	if _, err := ReadDatabase(bytes.NewReader(data[:len(data)-6])); !errors.Is(err, durable.ErrTruncated) {
		t.Errorf("corrupt+truncated: got %v, want durable.ErrTruncated", err)
	}
}

func TestParseQuery(t *testing.T) {
	e := &dna.Random
	const k = 5
	seq := "ACGTA"
	want := uint64(dna.MustKmer(e, seq))
	got, err := ParseQuery(e, k, false, seq)
	if err != nil || got != want {
		t.Fatalf("ParseQuery(%q) = %#x, %v; want %#x", seq, got, err, want)
	}

	// Canonical folding: the query and its reverse complement resolve to
	// the same key.
	canon, err := ParseQuery(e, k, true, seq)
	if err != nil {
		t.Fatal(err)
	}
	rc := dna.MustKmer(e, seq).ReverseComplement(e, k).String(e, k)
	canonRC, err := ParseQuery(e, k, true, rc)
	if err != nil {
		t.Fatal(err)
	}
	if canon != canonRC {
		t.Fatalf("canonical queries diverge: %#x vs %#x", canon, canonRC)
	}

	for _, bad := range []string{"", "ACG", "ACGTAA", "ACGTN"} {
		if _, err := ParseQuery(e, k, false, bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestDatabaseLookup(t *testing.T) {
	e := &dna.Random
	const k = 7
	tab := NewTable(8, Linear)
	seqs := []string{"ACGTACG", "TTTTTTT", "GATTACA"}
	for i, s := range seqs {
		for j := 0; j <= i; j++ {
			tab.Inc(uint64(dna.MustKmer(e, s)))
		}
	}
	d := FromTable(tab, k, 0)
	for i, s := range seqs {
		c, err := d.Lookup(e, s)
		if err != nil {
			t.Fatal(err)
		}
		if int(c) != i+1 {
			t.Fatalf("Lookup(%q) = %d, want %d", s, c, i+1)
		}
	}
	if c, err := d.Lookup(e, "CCCCCCC"); err != nil || c != 0 {
		t.Fatalf("absent Lookup = %d, %v", c, err)
	}
	if _, err := d.Lookup(e, "ACGT"); err == nil {
		t.Fatal("wrong-length Lookup accepted")
	}
}

// TestDatabaseGarbageStreams feeds structured garbage that is not a
// truncation of a valid file.
func TestDatabaseGarbageStreams(t *testing.T) {
	huge := make([]byte, 4+16)
	copy(huge, "DKCD")
	huge[4] = 1                // version
	huge[6] = 17               // k
	for i := 12; i < 20; i++ { // n = 0xffff… : implausible
		huge[i] = 0xff
	}
	if _, err := ReadDatabase(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible n: %v", err)
	}
}
