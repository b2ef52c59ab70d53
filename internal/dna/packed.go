package dna

import (
	"fmt"
	"slices"
)

// PackedSeq is a variable-length 2-bit-packed nucleotide sequence, the wire
// representation of a supermer (§IV-C): with the paper's window of 15 and
// k=17 every supermer is at most 31 bases and fits one 64-bit word, but the
// type supports arbitrary lengths so other (k, w) configurations work too.
//
// Packing layout: base i lives at bits [2i, 2i+2) of byte i/4 — little-endian
// in bases, which makes append O(1) without reshuffling.
type PackedSeq struct {
	data []byte
	n    int
}

// NewPackedSeq returns a PackedSeq with capacity for n bases.
func NewPackedSeq(capBases int) PackedSeq {
	return PackedSeq{data: make([]byte, 0, PackedBytes(capBases))}
}

// PackCodes packs a code slice into a fresh PackedSeq.
func PackCodes(codes []Code) PackedSeq {
	p := NewPackedSeq(len(codes))
	for _, c := range codes {
		p.Append(c)
	}
	return p
}

// Len returns the number of bases.
func (p *PackedSeq) Len() int { return p.n }

// Bytes returns the underlying packed bytes (⌈Len/4⌉ of them). The final
// partial byte has its unused high bits zero.
func (p *PackedSeq) Bytes() []byte { return p.data }

// Reset truncates the sequence to zero bases, keeping capacity.
func (p *PackedSeq) Reset() {
	p.data = p.data[:0]
	p.n = 0
}

// Append adds one base code at the end.
func (p *PackedSeq) Append(c Code) {
	if p.n%4 == 0 {
		p.data = append(p.data, 0)
	}
	p.data[len(p.data)-1] |= byte(c&3) << (2 * uint(p.n%4))
	p.n++
}

// At returns the code of base i.
func (p *PackedSeq) At(i int) Code {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: packed index %d out of range (len %d)", i, p.n))
	}
	return Code(p.data[i/4]>>(2*uint(i%4))) & 3
}

// Kmer extracts the k-mer starting at base offset i. This is the receiving
// side of the supermer pipeline: each received supermer of length s yields
// s-k+1 k-mers (Alg. 2, COUNTKMER).
func (p *PackedSeq) Kmer(i, k int) Kmer {
	if i < 0 || k < 0 || i+k > p.n {
		panic(fmt.Sprintf("dna: kmer[%d:%d] out of range (len %d)", i, i+k, p.n))
	}
	var w Kmer
	for j := i; j < i+k; j++ {
		w = w<<2 | Kmer(p.At(j))
	}
	return w
}

// Codes appends all base codes to dst.
func (p *PackedSeq) Codes(dst []Code) []Code {
	for i := 0; i < p.n; i++ {
		dst = append(dst, p.At(i))
	}
	return dst
}

// String decodes the sequence under e.
func (p *PackedSeq) String(e *Encoding) string {
	buf := make([]byte, p.n)
	for i := 0; i < p.n; i++ {
		buf[i] = e.Decode(p.At(i))
	}
	return string(buf)
}

// UnpackFrom reinterprets packed bytes holding n bases (as produced by
// Bytes) as a PackedSeq view. The bytes are not copied.
func UnpackFrom(data []byte, n int) PackedSeq {
	if len(data) < PackedBytes(n) {
		panic(fmt.Sprintf("dna: %d bytes cannot hold %d bases", len(data), n))
	}
	return PackedSeq{data: data[:PackedBytes(n)], n: n}
}

// SeqBuffer is the concatenated, separator-delimited ASCII base array that
// the host stages to the GPU (§III-B.1): all reads of a partition joined
// into "one long array of bases", read ends marked by SeparatorByte, so the
// kernel can partition the array evenly across thread blocks regardless of
// individual read lengths.
type SeqBuffer struct {
	data   []byte
	starts []int // start offset of each read within data
}

// Grow makes room for reads more reads holding bases bases in total, so the
// appends that follow allocate at most once instead of doubling up to size.
func (b *SeqBuffer) Grow(reads, bases int) {
	b.data = slices.Grow(b.data, bases+reads)
	b.starts = slices.Grow(b.starts, reads)
}

// AppendRead appends one read's bases followed by a separator.
func (b *SeqBuffer) AppendRead(seq []byte) {
	b.starts = append(b.starts, len(b.data))
	b.data = append(b.data, seq...)
	b.data = append(b.data, SeparatorByte)
}

// Data returns the concatenated array including separators.
func (b *SeqBuffer) Data() []byte { return b.data }

// NumReads returns how many reads were appended.
func (b *SeqBuffer) NumReads() int { return len(b.starts) }

// Read returns the i-th read's bases (excluding the separator).
func (b *SeqBuffer) Read(i int) []byte {
	start := b.starts[i]
	end := len(b.data)
	if i+1 < len(b.starts) {
		end = b.starts[i+1]
	}
	return b.data[start : end-1] // trim trailing separator
}

// TotalBases returns the number of nucleotide bases (excluding separators).
func (b *SeqBuffer) TotalBases() int { return len(b.data) - len(b.starts) }

// Reset empties the buffer, keeping capacity.
func (b *SeqBuffer) Reset() {
	b.data = b.data[:0]
	b.starts = b.starts[:0]
}
