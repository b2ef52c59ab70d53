package kcount

import (
	"fmt"

	"dedukt/internal/dna"
)

// ParseQuery converts an ASCII k-mer into the packed key under which a
// database with the given parameters stores it: the sequence is 2-bit
// packed under e and, for canonical databases, folded to the canonical
// strand. The sequence length must equal k — a query of the wrong length
// can never hit, so it is an error rather than a silent zero.
//
// This is the single ASCII→key path shared by the kserve service and the
// kmertools lookup subcommand, so CLI and HTTP queries agree byte-for-byte.
func ParseQuery(e *dna.Encoding, k int, canonical bool, seq string) (uint64, error) {
	if len(seq) != k {
		return 0, fmt.Errorf("kcount: query length %d, database k=%d", len(seq), k)
	}
	w, err := dna.KmerFromString(e, seq)
	if err != nil {
		return 0, err
	}
	if canonical {
		w = w.Canonical(e, k)
	}
	return uint64(w), nil
}

// Lookup resolves an ASCII k-mer against the database under encoding e,
// honoring the database's canonical flag. Absent k-mers return count 0.
func (d *Database) Lookup(e *dna.Encoding, seq string) (uint32, error) {
	key, err := ParseQuery(e, d.K, d.Canonical(), seq)
	if err != nil {
		return 0, err
	}
	return d.Get(key), nil
}
