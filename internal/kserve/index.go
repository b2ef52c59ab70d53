package kserve

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
)

// index is the served spectrum in the layout KMC 2/3 give their databases
// (.kmc_pre/.kmc_suf): the sorted keys are cut at their top p bits into 2^p
// buckets, offs holds where each bucket starts, and each key keeps only its
// low 2k−p bits, in the narrowest word that holds them. A count sits in a
// one-byte lane beside its suffix; a count of escapedLane or more is kept
// whole in a side table. A lookup reads its bucket's bounds and searches
// that bucket's few suffixes.
//
// At k=17 and a million keys that is p=18, a 2-byte suffix, a 1-byte lane
// and 1 byte of offsets a key: 4 B a k-mer where kcount.KV takes 16. The
// index is never written after newIndex returns, so concurrent readers need
// no coordination.
type index struct {
	keyBits uint // 2k: no key at or past 1<<keyBits is present
	sufBits uint // 2k − p: the bits a suffix keeps

	// offs[b]..offs[b+1] are the entry positions of bucket b.
	offs []uint32
	// Exactly one suffix slice is non-nil: the narrowest that holds sufBits.
	suf16 []uint16
	suf32 []uint32
	suf64 []uint64
	lanes []uint8
	// escaped holds the whole count of every entry whose lane is
	// escapedLane, ascending by entry position.
	escaped []escape
}

// escapedLane marks a lane whose count is in index.escaped.
const escapedLane = math.MaxUint8

type escape struct {
	pos   uint32
	count uint32
}

// prefixBits chooses the index shape for n keys of length k: the smallest p
// whose suffix fits 16 bits with 2^p ≤ n, else 32 bits, else 64. The bound
// on 2^p caps the offsets at 4 B a key; the smallest such p keeps them as
// small as the suffix width allows.
func prefixBits(k, n int) (p, width uint) {
	keyBits := uint(2 * k)
	for _, width = range []uint{16, 32} {
		p = 0
		if keyBits > width {
			p = keyBits - width
		}
		if 1<<p <= max(n, 1) {
			return p, width
		}
	}
	return 0, 64
}

// newIndex builds the index over a k-mer database's entries in one pass.
// The entries must ascend strictly and hold only keys below 4^k.
func newIndex(k int, entries []kcount.KV) (*index, error) {
	if k < 1 || k > dna.MaxK {
		return nil, fmt.Errorf("kserve: k=%d outside 1..%d", k, dna.MaxK)
	}
	n := len(entries)
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("kserve: %d entries exceed the index's 32-bit offsets", n)
	}
	p, width := prefixBits(k, n)
	x := &index{keyBits: uint(2 * k), sufBits: uint(2*k) - p, offs: make([]uint32, 1<<p+1), lanes: make([]uint8, n)}
	switch width {
	case 16:
		x.suf16 = make([]uint16, n)
	case 32:
		x.suf32 = make([]uint32, n)
	default:
		x.suf64 = make([]uint64, n)
	}
	next := uint64(0) // the first bucket whose start is not yet set
	for i, e := range entries {
		if i > 0 && e.Key <= entries[i-1].Key {
			return nil, fmt.Errorf("kserve: entry %d key %#x does not ascend past %#x", i, e.Key, entries[i-1].Key)
		}
		if e.Key>>x.keyBits != 0 {
			return nil, fmt.Errorf("kserve: entry %d key %#x is not a %d-mer", i, e.Key, k)
		}
		for b := e.Key >> x.sufBits; next <= b; next++ {
			x.offs[next] = uint32(i)
		}
		// A key below 4^k truncated to the suffix word is its suffix: either
		// p > 0 and the word is exactly sufBits wide, or p == 0 and the
		// whole key fits.
		switch width {
		case 16:
			x.suf16[i] = uint16(e.Key)
		case 32:
			x.suf32[i] = uint32(e.Key)
		default:
			x.suf64[i] = e.Key
		}
		if e.Count < escapedLane {
			x.lanes[i] = uint8(e.Count)
		} else {
			x.lanes[i] = escapedLane
			x.escaped = append(x.escaped, escape{uint32(i), e.Count})
		}
	}
	for ; next < uint64(len(x.offs)); next++ {
		x.offs[next] = uint32(n)
	}
	return x, nil
}

// get returns key's count, 0 if absent.
func (x *index) get(key uint64) uint32 {
	if key>>x.keyBits != 0 {
		return 0
	}
	b := key >> x.sufBits
	lo, hi := int(x.offs[b]), int(x.offs[b+1])
	var i int
	var found bool
	switch {
	case x.suf16 != nil:
		i, found = slices.BinarySearch(x.suf16[lo:hi], uint16(key))
	case x.suf32 != nil:
		i, found = slices.BinarySearch(x.suf32[lo:hi], uint32(key))
	default:
		i, found = slices.BinarySearch(x.suf64[lo:hi], key)
	}
	if !found {
		return 0
	}
	if lane := x.lanes[lo+i]; lane != escapedLane {
		return uint32(lane)
	}
	j, _ := slices.BinarySearchFunc(x.escaped, uint32(lo+i), func(e escape, pos uint32) int { return cmp.Compare(e.pos, pos) })
	return x.escaped[j].count
}

// bytes is the index's footprint: what a replica holds for its spectrum.
func (x *index) bytes() int {
	return 4*len(x.offs) + 2*len(x.suf16) + 4*len(x.suf32) + 8*len(x.suf64) + len(x.lanes) + 8*cap(x.escaped)
}
