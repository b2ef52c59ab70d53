package recover

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/kcount"
)

func testFingerprint() Fingerprint {
	return Fingerprint{
		K: 17, M: 7, Mode: "supermer", Engine: "gpu", Encoding: "2bit",
		Canonical: true, Ranks: 4, Nodes: 1,
		Inputs: []fastq.File{{Path: "a.fq", Size: 1234}, {Path: "b.fq.gz", Size: 99}},
	}
}

func testDatabase(t *testing.T) *kcount.Database {
	t.Helper()
	tbl := kcount.NewTable(16, kcount.Linear)
	tbl.Add(0x1, 3)
	tbl.Add(0xabc, 1)
	tbl.Add(0xffff, 7)
	return kcount.FromTable(tbl, 17, 0)
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Fingerprint: testFingerprint(),
		Round:       5,
		Cursor:      fastq.Cursor{Input: 1, Record: 42},
		Reads:       1000,
		Bases:       100000,
		Survivors:   []int{0, 1, 3},
		Dead:        []int{2},
	}
	dir := t.TempDir()
	if err := SaveManifest(dir, m); err != nil {
		t.Fatalf("SaveManifest: %v", err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if got.Round != m.Round || got.Cursor != m.Cursor || got.Reads != m.Reads ||
		got.Bases != m.Bases || len(got.Survivors) != 3 || got.Survivors[2] != 3 ||
		len(got.Dead) != 1 || got.Dead[0] != 2 {
		t.Fatalf("manifest round-trip mismatch: %+v != %+v", got, m)
	}
	if got.Fingerprint.Hash() != m.Fingerprint.Hash() {
		t.Fatalf("fingerprint hash changed across round-trip")
	}
}

func TestLoadManifestMissing(t *testing.T) {
	_, err := LoadManifest(t.TempDir())
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing manifest: got %v, want ErrNoCheckpoint", err)
	}
}

func TestManifestCorruption(t *testing.T) {
	m := &Manifest{Fingerprint: testFingerprint(), Round: 2, Survivors: []int{0, 1, 2, 3}}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	for cut := 0; cut < len(full); cut++ {
		_, err := ReadManifest(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
		if !errors.Is(err, durable.ErrTruncated) && !errors.Is(err, durable.ErrChecksum) && !errors.Is(err, durable.ErrMismatch) {
			t.Fatalf("truncation at %d: unstructured error %v", cut, err)
		}
	}
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x5a
		got, err := ReadManifest(bytes.NewReader(mut))
		if err == nil && got.Round == m.Round && got.Fingerprint.Hash() == m.Fingerprint.Hash() {
			continue // flip didn't change meaning is impossible with CRC; but equal decode is fine
		}
		if err == nil {
			t.Fatalf("flip at %d decoded different manifest without error", i)
		}
	}
}

func TestManifestRejectsBadShape(t *testing.T) {
	cases := []Manifest{
		{Fingerprint: testFingerprint(), Round: -1, Survivors: []int{0}},
		{Fingerprint: testFingerprint(), Round: 0},                                               // no survivors
		{Fingerprint: testFingerprint(), Round: 0, Survivors: []int{0, 0}},                       // dup
		{Fingerprint: testFingerprint(), Round: 0, Survivors: []int{4}},                          // out of range
		{Fingerprint: testFingerprint(), Round: 0, Survivors: []int{0, 1, 2, 3}, Dead: []int{3}}, // overlap
	}
	for i, m := range cases {
		var buf bytes.Buffer
		if err := WriteManifest(&buf, &m); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(&buf); !errors.Is(err, durable.ErrMismatch) {
			t.Fatalf("case %d: got %v, want ErrMismatch", i, err)
		}
	}
}

// TestManifestV1Refused: a manifest the version-1 framing wrote (magic,
// version, length, JSON, one CRC over all of it) is refused as a mismatch,
// never misread under the version-2 framing.
func TestManifestV1Refused(t *testing.T) {
	v1, err := hex.DecodeString("444b4d460100ad0000007b2266696e6765727072696e74223a7b226b223a31372c226d6f6465223a226b6d6572222c22656e67696e65223a22637075222c22656e636f64696e67223a2232626974222c2272616e6b73223a322c226e6f646573223a317d2c22726f756e64223a312c22637572736f72223a7b22496e707574223a302c225265636f7264223a397d2c227265616473223a392c226261736573223a3930302c227375727669766f7273223a5b302c315d7d2eecba45")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bytes.NewReader(v1)); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("version-1 manifest: got %v, want durable.ErrMismatch", err)
	}
}

// TestManifestIncompleteRefused: older builds marked a checkpoint taken
// after a round that lost payloads with "incomplete": true. Its slices are
// a lower bound, so the manifest is refused as a mismatch rather than
// resumed as exact; the same manifest without the field loads.
func TestManifestIncompleteRefused(t *testing.T) {
	const exact = `{"fingerprint":{"k":17,"mode":"kmer","engine":"cpu","encoding":"2bit","ranks":2,"nodes":1},` +
		`"round":1,"cursor":{"Input":0,"Record":9},"reads":9,"bases":900,"survivors":[0,1]`
	frame := func(payload string) *bytes.Reader {
		var buf bytes.Buffer
		if err := durable.WriteHeader(&buf, manifestMagic, []byte{manifestVersion, 0}); err != nil {
			t.Fatal(err)
		}
		buf.Write(durable.AppendRecord(nil, []byte(payload)))
		return bytes.NewReader(buf.Bytes())
	}
	if _, err := ReadManifest(frame(exact + `}`)); err != nil {
		t.Fatalf("exact manifest: %v", err)
	}
	if _, err := ReadManifest(frame(exact + `,"incomplete":true}`)); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("incomplete manifest: got %v, want durable.ErrMismatch", err)
	}
}

func TestRankFileRoundTrip(t *testing.T) {
	db := testDatabase(t)
	fp := testFingerprint().Hash()
	dir := t.TempDir()
	if err := SaveRankFile(dir, 3, 1, fp, db); err != nil {
		t.Fatalf("SaveRankFile: %v", err)
	}
	got, err := LoadRankFile(RankFilePath(dir, 3, 1), 3, 1, fp)
	if err != nil {
		t.Fatalf("LoadRankFile: %v", err)
	}
	if got.K != db.K || got.Len() != db.Len() {
		t.Fatalf("rank file round-trip: k=%d n=%d, want k=%d n=%d", got.K, got.Len(), db.K, db.Len())
	}
	for i, kv := range db.Entries {
		if got.Entries[i] != kv {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries[i], kv)
		}
	}

	// Wrong coordinates must be refused.
	if _, err := LoadRankFile(RankFilePath(dir, 3, 1), 4, 1, fp); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("wrong round: got %v, want ErrMismatch", err)
	}
	if _, err := LoadRankFile(RankFilePath(dir, 3, 1), 3, 2, fp); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("wrong slot: got %v, want ErrMismatch", err)
	}
	if _, err := LoadRankFile(RankFilePath(dir, 3, 1), 3, 1, fp+1); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("wrong fingerprint: got %v, want ErrMismatch", err)
	}
}

func TestRankFileCorruption(t *testing.T) {
	db := testDatabase(t)
	var buf bytes.Buffer
	if err := WriteRankFile(&buf, 1, 0, 0xdeadbeef, db); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, _, _, _, err := ReadRankFile(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
		if !errors.Is(err, durable.ErrTruncated) && !errors.Is(err, durable.ErrChecksum) && !errors.Is(err, durable.ErrMismatch) {
			t.Fatalf("truncation at %d: unstructured error %v", cut, err)
		}
	}
	// Flip a byte in the embedded database body: its own CRC catches it.
	mut := append([]byte(nil), full...)
	mut[len(mut)-6] ^= 0xff
	if _, _, _, _, err := ReadRankFile(bytes.NewReader(mut)); !errors.Is(err, durable.ErrChecksum) {
		t.Fatalf("body flip: got %v, want ErrChecksum", err)
	}
	// Flip a header byte: the header CRC catches it.
	mut = append([]byte(nil), full...)
	mut[6] ^= 0xff
	if _, _, _, _, err := ReadRankFile(bytes.NewReader(mut)); !errors.Is(err, durable.ErrChecksum) {
		t.Fatalf("header flip: got %v, want ErrChecksum", err)
	}
}

func TestFingerprintHashSensitivity(t *testing.T) {
	base := testFingerprint()
	variants := []Fingerprint{base, base, base, base, base}
	variants[1].K = 21
	variants[2].Ranks = 8
	variants[3].Inputs = []fastq.File{{Path: "a.fq", Size: 1235}, {Path: "b.fq.gz", Size: 99}}
	variants[4].Engine = "cpu"
	h0 := base.Hash()
	for i, v := range variants[1:] {
		if v.Hash() == h0 {
			t.Fatalf("variant %d hashes equal to base", i+1)
		}
	}
	if base.Hash() != h0 {
		t.Fatalf("hash not deterministic")
	}
}

func TestRemoveStale(t *testing.T) {
	dir := t.TempDir()
	fp := testFingerprint().Hash()
	db := testDatabase(t)
	for _, r := range []int{1, 3, 5} {
		if err := SaveRankFile(dir, r, 0, fp, db); err != nil {
			t.Fatal(err)
		}
	}
	// Writes a killed writer never committed, one of them of the kept round:
	// the temporary names durable.File leaves are what RemoveStale deletes.
	for _, path := range []string{ManifestPath(dir), RankFilePath(dir, 5, 1)} {
		if _, err := durable.Create(path); err != nil {
			t.Fatal(err)
		}
	}
	RemoveStale(dir, 5)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(RankFilePath(dir, 5, 0)) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("after RemoveStale: %v, want only round-5 slot file", names)
	}
}

func TestSuccessor(t *testing.T) {
	dead := []bool{false, true, true, false}
	cases := []struct{ r, want int }{{0, 0}, {1, 3}, {2, 3}, {3, 3}}
	for _, c := range cases {
		if got := Successor(c.r, dead); got != c.want {
			t.Fatalf("Successor(%d)=%d, want %d", c.r, got, c.want)
		}
	}
	if got := Successor(2, []bool{true, true, true}); got != -1 {
		t.Fatalf("all-dead Successor=%d, want -1", got)
	}
	// Composition: Successor(Successor(r, D), D') == Successor(r, D') for D ⊆ D'.
	d1 := []bool{false, true, false, false, false}
	d2 := []bool{false, true, true, false, true}
	for r := 0; r < 5; r++ {
		if got, want := Successor(Successor(r, d1), d2), Successor(r, d2); got != want {
			t.Fatalf("composition broken at r=%d: %d != %d", r, got, want)
		}
	}
}
