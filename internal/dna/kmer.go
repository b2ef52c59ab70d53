package dna

import (
	"fmt"
	"math/bits"
)

// MaxK is the largest k-mer length representable by the single-word Kmer
// type (2 bits per base in a uint64). The paper's experiments use k=17,
// comfortably within one word.
const MaxK = 32

// Kmer is a 2-bit-packed k-mer of length ≤ MaxK. The base at offset 0 (the
// leftmost, i.e. first, base of the sequence) occupies the *most* significant
// used bit pair, so that for a fixed k the integer order of Kmer values
// equals the lexicographic order of the code sequences. The k-mer length is
// carried externally (it is uniform across a run), exactly as in the paper's
// packed representation (§III-B.1).
type Kmer uint64

// KmerFromCodes packs k codes (k ≤ MaxK) into a Kmer.
func KmerFromCodes(codes []Code) Kmer {
	if len(codes) > MaxK {
		panic(fmt.Sprintf("dna: k=%d exceeds MaxK=%d", len(codes), MaxK))
	}
	var w Kmer
	for _, c := range codes {
		w = w<<2 | Kmer(c&3)
	}
	return w
}

// KmerFromString encodes an ASCII string of length ≤ MaxK under e.
func KmerFromString(e *Encoding, s string) (Kmer, error) {
	if len(s) > MaxK {
		return 0, fmt.Errorf("dna: k=%d exceeds MaxK=%d", len(s), MaxK)
	}
	var w Kmer
	for i := 0; i < len(s); i++ {
		code, ok := e.Encode(s[i])
		if !ok {
			return 0, fmt.Errorf("dna: invalid base %q at position %d", s[i], i)
		}
		w = w<<2 | Kmer(code)
	}
	return w, nil
}

// MustKmer is KmerFromString that panics on invalid input; for tests.
func MustKmer(e *Encoding, s string) Kmer {
	w, err := KmerFromString(e, s)
	if err != nil {
		panic(err)
	}
	return w
}

// KmerMask returns the mask covering the 2k low bits of a k-mer.
func KmerMask(k int) Kmer {
	if k <= 0 {
		return 0
	}
	if k >= MaxK {
		return ^Kmer(0)
	}
	return (Kmer(1) << (2 * uint(k))) - 1
}

// Append shifts in one base code at the right end (the "next" base in the
// read) and drops the leftmost base, yielding the next sliding-window k-mer.
// This is the O(1) rolling step both kernels rely on.
func (w Kmer) Append(k int, c Code) Kmer {
	return (w<<2 | Kmer(c&3)) & KmerMask(k)
}

// Base returns the code of the base at offset i (0 = leftmost/first base).
func (w Kmer) Base(k, i int) Code {
	if i < 0 || i >= k {
		panic(fmt.Sprintf("dna: base index %d out of range for k=%d", i, k))
	}
	shift := 2 * uint(k-1-i)
	return Code(w>>shift) & 3
}

// Sub extracts the contiguous sub-k-mer of length m starting at offset i
// (in bases). It is how minimizer candidates (m-mers) are sliced out of a
// k-mer without re-reading the input.
func (w Kmer) Sub(k, i, m int) Kmer {
	if i < 0 || m < 0 || i+m > k {
		panic(fmt.Sprintf("dna: sub[%d:%d+%d] out of range for k=%d", i, i, m, k))
	}
	shift := 2 * uint(k-i-m)
	return (w >> shift) & KmerMask(m)
}

// Codes appends the k codes of w to dst.
func (w Kmer) Codes(dst []Code, k int) []Code {
	for i := 0; i < k; i++ {
		dst = append(dst, w.Base(k, i))
	}
	return dst
}

// String decodes w under e into an ASCII string of length k.
func (w Kmer) String(e *Encoding, k int) string {
	buf := make([]byte, k)
	for i := 0; i < k; i++ {
		buf[i] = e.Decode(w.Base(k, i))
	}
	return string(buf)
}

// ReverseComplement returns the reverse complement of w under encoding e.
func (w Kmer) ReverseComplement(e *Encoding, k int) Kmer {
	var rc Kmer
	for i := 0; i < k; i++ {
		rc = rc<<2 | Kmer(e.Complement(Code(w&3)))
		w >>= 2
	}
	return rc
}

// Canonical returns the smaller (by packed value) of w and its reverse
// complement. The paper does not canonicalize (Fig. 4 caption) — the main
// pipelines follow suit — but canonical counting is offered as the common
// downstream convention.
func (w Kmer) Canonical(e *Encoding, k int) Kmer {
	rc := w.ReverseComplement(e, k)
	if rc < w {
		return rc
	}
	return w
}

// GCContent returns the number of G/C bases in w under encoding e.
func (w Kmer) GCContent(e *Encoding, k int) int {
	g := Kmer(e.MustEncode('G'))
	c := Kmer(e.MustEncode('C'))
	n := 0
	for i := 0; i < k; i++ {
		b := w & 3
		if b == g || b == c {
			n++
		}
		w >>= 2
	}
	return n
}

// Words reports how many 64-bit machine words a k-mer of length k occupies
// when 2-bit packed: ⌈k/32⌉. Used to size exchange buffers (§III-B.1 notes
// an 11-mer fits a 32-bit word instead of 88 bits of characters).
func Words(k int) int { return (k + MaxK - 1) / MaxK }

// PackedBytes reports the number of bytes needed for a 2-bit packed
// sequence of n bases: ⌈n/4⌉.
func PackedBytes(n int) int { return (n + 3) / 4 }

// PopcountCodes is a helper used by tests: number of set bits in the packed
// representation (useful for quick hashing sanity checks).
func (w Kmer) PopcountCodes() int { return bits.OnesCount64(uint64(w)) }
