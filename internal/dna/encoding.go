// Package dna provides the nucleotide alphabet, 2-bit encodings, packed
// k-mer representations and sequence buffers used throughout the DEDUKT
// reproduction.
//
// A central idea from the paper (§III-B.1 and §IV-A) is that the four bases
// A, C, G, T are encoded in two bits, compressing a k-mer of length k into
// ⌈k/32⌉ machine words. The paper additionally exploits the *choice* of the
// 2-bit code as a cheap minimizer ordering: mapping A=1, C=0, T=2, G=3
// ("random" ordering, first explored by Squeakr) spreads minimizers more
// evenly than the lexicographic code and therefore produces more balanced
// supermer partitions.
package dna

import "fmt"

// Code is a 2-bit nucleotide code in the range [0,4). The numeric value is
// meaningful only relative to the Encoding that produced it.
type Code = uint8

// SeparatorByte marks read boundaries in concatenated ASCII base arrays
// staged to the (simulated) GPU, mirroring the paper's "special bases" that
// mark read ends (§III-B.1). It never appears inside a read.
const SeparatorByte byte = '\x00'

// Encoding maps ASCII nucleotides to 2-bit codes and back. The zero value is
// not valid; use one of the predefined encodings.
type Encoding struct {
	name string
	// enc maps ASCII byte -> code|validFlag. Entries with bit 7 clear are
	// invalid characters.
	enc [256]uint8
	// dec maps code -> upper-case ASCII base.
	dec [4]byte
	// comp maps code -> code of the complementary base.
	comp [4]Code
}

const validFlag = 0x80

// newEncoding builds an Encoding from the codes assigned to A, C, G and T.
// Lower-case input letters are accepted and map to the same codes.
func newEncoding(name string, a, c, g, t Code) Encoding {
	var e Encoding
	e.name = name
	assign := func(ch byte, code Code) {
		e.enc[ch] = uint8(code) | validFlag
		e.enc[ch|0x20] = uint8(code) | validFlag // lower case
		e.dec[code] = ch
	}
	assign('A', a)
	assign('C', c)
	assign('G', g)
	assign('T', t)
	// Complement pairs: A<->T, C<->G.
	e.comp[a] = t
	e.comp[t] = a
	e.comp[c] = g
	e.comp[g] = c
	return e
}

var (
	// Lexicographic is the textbook encoding A=0, C=1, G=2, T=3. Under this
	// encoding, comparing packed values compares sequences lexicographically,
	// which is the minimizer ordering of Roberts et al. (§II-B).
	Lexicographic = newEncoding("lex", 0, 1, 2, 3)

	// Random is the DEDUKT encoding A=1, C=0, T=2, G=3 (§IV-A). Packed-value
	// comparison under this encoding implicitly defines a "custom" minimizer
	// ordering that spreads out supermer partitions without extra work.
	Random = newEncoding("random", 1, 0, 3, 2)
)

// Name returns the encoding's short identifier ("lex" or "random").
func (e *Encoding) Name() string { return e.name }

// Encode converts an ASCII base (either case) to its 2-bit code.
// ok is false for any non-ACGT character (including 'N' and the read
// separator), in which case code is 0.
func (e *Encoding) Encode(ch byte) (code Code, ok bool) {
	v := e.enc[ch]
	return Code(v &^ validFlag), v&validFlag != 0
}

// MustEncode is Encode for inputs already known to be valid bases; it panics
// on anything else. Intended for tests and internal hot paths that have
// validated their input.
func (e *Encoding) MustEncode(ch byte) Code {
	code, ok := e.Encode(ch)
	if !ok {
		panic(fmt.Sprintf("dna: %q is not a valid base", ch))
	}
	return code
}

// Decode converts a 2-bit code back to its upper-case ASCII base.
func (e *Encoding) Decode(code Code) byte { return e.dec[code&3] }

// Complement returns the code of the Watson-Crick complement of code.
func (e *Encoding) Complement(code Code) Code { return e.comp[code&3] }

// Valid reports whether ch is one of A, C, G, T in either case.
func (e *Encoding) Valid(ch byte) bool { return e.enc[ch]&validFlag != 0 }

// EncodeSeq encodes an ASCII sequence into codes, appending to dst and
// returning the extended slice. It returns an error naming the offending
// position if the sequence contains a non-ACGT character.
func (e *Encoding) EncodeSeq(dst []Code, seq []byte) ([]Code, error) {
	for i, ch := range seq {
		code, ok := e.Encode(ch)
		if !ok {
			return dst, fmt.Errorf("dna: invalid base %q at position %d", ch, i)
		}
		dst = append(dst, code)
	}
	return dst, nil
}
