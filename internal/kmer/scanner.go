// Package kmer extracts k-mers from reads and concatenated base arrays.
//
// It implements the sliding-window parse of Alg. 1 (PARSEKMER): every
// position i of a read of length L with i ≤ L-k yields the k-mer
// r[i:i+k], provided the window contains only valid bases. Windows
// containing 'N' (or any non-ACGT character, including the read separator
// in concatenated GPU buffers) are skipped, and scanning restarts after the
// offending base — the standard convention in k-mer counters.
package kmer

import (
	"fmt"

	"dedukt/internal/dna"
)

// Scanner iterates the valid k-mers of a single read. The zero value is not
// usable; construct with NewScanner.
type Scanner struct {
	enc   *dna.Encoding
	seq   []byte
	k     int
	pos   int      // index of the next base to consume
	valid int      // number of consecutive valid bases ending just before pos
	cur   dna.Kmer // rolling window
}

// NewScanner returns a scanner over seq producing k-mers of length k
// encoded under enc. It panics if k is out of (0, dna.MaxK].
func NewScanner(enc *dna.Encoding, seq []byte, k int) *Scanner {
	if k <= 0 || k > dna.MaxK {
		panic(fmt.Sprintf("kmer: k=%d outside (0,%d]", k, dna.MaxK))
	}
	return &Scanner{enc: enc, seq: seq, k: k}
}

// Next returns the next k-mer and the read offset of its first base.
// ok is false when the read is exhausted.
func (s *Scanner) Next() (w dna.Kmer, pos int, ok bool) {
	for s.pos < len(s.seq) {
		code, valid := s.enc.Encode(s.seq[s.pos])
		s.pos++
		if !valid {
			s.valid = 0
			continue
		}
		s.cur = s.cur.Append(s.k, code)
		s.valid++
		if s.valid >= s.k {
			return s.cur, s.pos - s.k, true
		}
	}
	return 0, 0, false
}

// ForEach invokes fn for every valid k-mer of seq in order. It is the
// allocation-free bulk form of Scanner.
func ForEach(enc *dna.Encoding, seq []byte, k int, fn func(w dna.Kmer, pos int)) {
	s := NewScanner(enc, seq, k)
	for {
		w, pos, ok := s.Next()
		if !ok {
			return
		}
		fn(w, pos)
	}
}

// Count returns the number of valid k-mers in seq.
func Count(enc *dna.Encoding, seq []byte, k int) int {
	n := 0
	ForEach(enc, seq, k, func(dna.Kmer, int) { n++ })
	return n
}

// Extract appends all valid k-mers of seq to dst. seq may be a
// separator-delimited buffer of many reads (dna.SeqBuffer.Data): the
// separator is an invalid base, so no window straddles two reads (§III-B.1).
func Extract(dst []dna.Kmer, enc *dna.Encoding, seq []byte, k int) []dna.Kmer {
	ForEach(enc, seq, k, func(w dna.Kmer, _ int) { dst = append(dst, w) })
	return dst
}
