package recover

import (
	"bytes"
	"errors"
	"testing"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/kcount"
)

// FuzzCheckpointManifest feeds arbitrary bytes to both checkpoint
// readers. A damaged file may be rejected — with a structured sentinel,
// never a panic — but whatever decodes must be internally consistent, so
// a resume can never be seeded from wrong state.
func FuzzCheckpointManifest(f *testing.F) {
	var buf bytes.Buffer
	m := &Manifest{
		Fingerprint: testFingerprintF(),
		Round:       3,
		Cursor:      fastq.Cursor{Input: 1, Record: 7},
		Reads:       100, Bases: 10000,
		Survivors: []int{0, 1, 3}, Dead: []int{2},
	}
	if err := WriteManifest(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	buf.Reset()
	tbl := kcount.NewTable(8, kcount.Linear)
	tbl.Add(0x1, 2)
	tbl.Add(0x2, 5)
	if err := WriteRankFile(&buf, 3, 1, m.Fingerprint.Hash(), kcount.FromTable(tbl, 17, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(manifestMagic))
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := ReadManifest(bytes.NewReader(data)); err != nil {
			if !structured(err) {
				t.Fatalf("ReadManifest: unstructured error %v", err)
			}
		} else {
			if m.Round < 0 || len(m.Survivors) == 0 || len(m.Survivors) > m.Fingerprint.Ranks {
				t.Fatalf("ReadManifest accepted inconsistent manifest: %+v", m)
			}
			for _, o := range m.Survivors {
				if o < 0 || o >= m.Fingerprint.Ranks {
					t.Fatalf("ReadManifest accepted survivor %d of %d ranks", o, m.Fingerprint.Ranks)
				}
			}
		}
		if round, slot, _, db, err := ReadRankFile(bytes.NewReader(data)); err != nil {
			if !structured(err) {
				t.Fatalf("ReadRankFile: unstructured error %v", err)
			}
		} else {
			if round < 0 || slot < 0 || db == nil {
				t.Fatalf("ReadRankFile accepted inconsistent file: round %d slot %d db %v", round, slot, db)
			}
		}
	})
}

// structured reports whether err is one of durable's three sentinels.
func structured(err error) bool {
	return errors.Is(err, durable.ErrTruncated) || errors.Is(err, durable.ErrChecksum) || errors.Is(err, durable.ErrMismatch)
}

func testFingerprintF() Fingerprint {
	return Fingerprint{
		K: 17, M: 7, Mode: "supermer", Engine: "gpu", Encoding: "2bit",
		Ranks: 4, Nodes: 1,
		Inputs: []InputFile{{Path: "a.fq", Size: 1234}},
	}
}
