// Package kcount implements the k-mer counter hash tables of §III-B.3: open
// addressing with linear probing, slot selection by MurmurHash3's fmix64
// finalizer (hash.Mix64Seeded), and an atomic variant with the
// insert/increment semantics of the GPU kernel. A map-based serial oracle
// is provided for correctness testing, plus histogram/spectrum utilities
// over counted tables.
package kcount

import (
	"fmt"
	"math/bits"
	"sort"

	"dedukt/internal/dna"
	"dedukt/internal/hash"
	"dedukt/internal/kmer"
)

// Probing names the collision resolution sequence (§III-B.3: "In this work,
// we use linear probing"). Linear, slots h, h+1, h+2, ..., is the only one:
// the type and the constructors' prob parameter remain because the
// benchmark module calls NewTable and NewAtomicTable with kcount.Linear.
type Probing int

// Linear probes slots h, h+1, h+2, ...
const Linear Probing = 0

// tableSeed is the slot-hash seed; it must differ from the seed used for
// destination-rank hashing so table position is independent of rank
// assignment.
const tableSeed = 0x9e3779b97f4a7c15

// slotOf returns the home slot for a key in a table of capacity mask+1.
func slotOf(key uint64, mask uint64) uint64 {
	return hash.Mix64Seeded(key, tableSeed) & mask
}

// Table is a serial open-addressing counter: packed k-mer keys to uint32
// counts. Keys are stored biased by +1 so the zero word can serve as the
// empty sentinel; this supports every k ≤ 31 (and k = 32 except the all-T
// k-mer under lexicographic encoding, which the constructor rejects via
// MaxKey). The table grows by rehashing at 70% load: one doubling when a new
// key finds it there, or one rehash to whatever Reserve is asked to hold.
type Table struct {
	keys   []uint64 // biased: stored = key + 1; 0 = empty
	counts []uint32
	mask   uint64
	n      int // occupied slots
	limit  int // most keys held before a new one grows the table: ⌊0.7·Cap⌋
	grows  int // rehashes so far
	moved  int // keys those rehashes re-inserted, in total
	// Probes accumulates the total number of slots inspected across all
	// operations — the quantity the GPU cost model charges memory traffic
	// for.
	Probes uint64
}

// MaxKey is the largest storable key (reserved sentinel excluded).
const MaxKey = ^uint64(0) - 1

// NewTable creates a table with capacity for at least expected entries at
// ≤50% initial load. prob must be Linear (see Probing).
func NewTable(expected int, prob Probing) *Table {
	if expected < 1 {
		expected = 1
	}
	capacity := 1 << uint(bits.Len(uint(expected*2-1)))
	if capacity < 8 {
		capacity = 8
	}
	t := &Table{}
	t.alloc(capacity)
	return t
}

// alloc replaces the table's slots by capacity empty ones, a power of two.
func (t *Table) alloc(capacity int) {
	t.keys = make([]uint64, capacity)
	t.counts = make([]uint32, capacity)
	t.mask = uint64(capacity - 1)
	t.limit = ceilingOf(capacity)
}

// ceilingOf returns the most keys a table of capacity slots holds before a
// new key grows it.
func ceilingOf(capacity int) int { return int(0.7 * float64(capacity)) }

// Len returns the number of distinct keys stored.
func (t *Table) Len() int { return t.n }

// Cap returns the current slot capacity.
func (t *Table) Cap() int { return len(t.keys) }

// Grows returns how many times the table has rehashed into a larger one.
func (t *Table) Grows() int { return t.grows }

// Rehashed returns how many keys those rehashes re-inserted in total.
func (t *Table) Rehashed() int { return t.moved }

// Add increments the count of key by delta, inserting it if absent, and
// reports whether the key was newly inserted. Only a new key can grow the
// table: incrementing a held key never does, however full the table is. It
// panics on the reserved sentinel key.
func (t *Table) Add(key uint64, delta uint32) (isNew bool) {
	if key > MaxKey {
		panic("kcount: key collides with empty sentinel")
	}
	stored := key + 1
	slot := slotOf(key, t.mask)
	for i := uint64(0); ; i++ {
		idx := (slot + i) & t.mask
		t.Probes++
		switch t.keys[idx] {
		case 0:
			if t.n >= t.limit {
				// Probes counts the insert that lands, under the grown mask.
				t.Probes -= i + 1
				t.rehash(2 * len(t.keys))
				return t.Add(key, delta)
			}
			t.keys[idx] = stored
			t.counts[idx] = delta
			t.n++
			return true
		case stored:
			t.counts[idx] += delta
			return false
		}
	}
}

// Inc is Add(key, 1) — the per-k-mer hot path of COUNTKMER.
func (t *Table) Inc(key uint64) bool { return t.Add(key, 1) }

// Get returns the count of key (0 if absent).
func (t *Table) Get(key uint64) uint32 {
	stored := key + 1
	slot := slotOf(key, t.mask)
	for i := uint64(0); ; i++ {
		idx := (slot + i) & t.mask
		switch t.keys[idx] {
		case 0:
			return 0
		case stored:
			return t.counts[idx]
		}
	}
}

// ForEach calls fn for every (key, count) pair in unspecified order.
func (t *Table) ForEach(fn func(key uint64, count uint32)) {
	for i, stored := range t.keys {
		if stored != 0 {
			fn(stored-1, t.counts[i])
		}
	}
}

// Reserve makes room for more new keys and returns how many now fit before
// the table grows. When they fit already it changes nothing — Reserve(0) just
// reads the room; otherwise the table is rehashed once, to the capacity the
// growth ceiling needs for Len()+more keys, so the doublings Add would have
// gone through on the way there, and the tables they abandon, never exist.
func (t *Table) Reserve(more int) (room int) {
	capacity := len(t.keys)
	for t.n+more > ceilingOf(capacity) {
		capacity *= 2
	}
	if capacity > len(t.keys) {
		t.rehash(capacity)
	}
	return t.limit - t.n
}

// rehash moves the keys into a new table of capacity slots, in slot order.
// Probes is Add's alone: the moves are Rehashed's to count.
func (t *Table) rehash(capacity int) {
	oldKeys, oldCounts := t.keys, t.counts
	t.moved += t.n
	t.grows++
	t.alloc(capacity)
	for i, stored := range oldKeys {
		if stored == 0 {
			continue
		}
		slot := slotOf(stored-1, t.mask)
		for j := uint64(0); ; j++ {
			if idx := (slot + j) & t.mask; t.keys[idx] == 0 {
				t.keys[idx], t.counts[idx] = stored, oldCounts[i]
				break
			}
		}
	}
}

// Merge folds other into t.
func (t *Table) Merge(other *Table) {
	other.ForEach(func(k uint64, c uint32) { t.Add(k, c) })
}

// Histogram is a k-mer frequency spectrum: Counts[f] = number of distinct
// k-mers occurring exactly f times (f ≥ 1). The paper motivates counting by
// exactly these histograms (§II-A).
type Histogram struct {
	Counts map[uint32]uint64
}

// Histogram computes the frequency spectrum of the table.
func (t *Table) Histogram() Histogram {
	h := Histogram{Counts: make(map[uint32]uint64)}
	t.ForEach(func(_ uint64, c uint32) { h.Counts[c]++ })
	return h
}

// Distinct returns the number of distinct k-mers.
func (h Histogram) Distinct() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Total returns the total k-mer multiset size Σ f·Counts[f].
func (h Histogram) Total() uint64 {
	var n uint64
	for f, c := range h.Counts {
		n += uint64(f) * c
	}
	return n
}

// Singletons returns the number of k-mers seen exactly once (usually
// sequencing errors).
func (h Histogram) Singletons() uint64 { return h.Counts[1] }

// Frequencies returns the sorted list of occupied frequency classes.
func (h Histogram) Frequencies() []uint32 {
	fs := make([]uint32, 0, len(h.Counts))
	for f := range h.Counts {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}

// Merge adds other's classes into h.
func (h Histogram) Merge(other Histogram) {
	for f, c := range other.Counts {
		h.Counts[f] += c
	}
}

// TopK returns the k highest-count (key, count) pairs of the table, counts
// descending, keys ascending among ties — the "k-mers of scientific
// interest by frequency" query from §II-A. It is one pass over the slots
// through a k-entry heap; a negative k returns nil.
func (t *Table) TopK(k int) []KV {
	if k < 0 {
		return nil
	}
	top := topHeap{k: k}
	t.ForEach(func(key uint64, c uint32) { top.offer(KV{key, c}) })
	return top.sorted()
}

// KV is a k-mer/count pair.
type KV struct {
	Key   uint64
	Count uint32
}

// SerialCount is the reference oracle: count k-mers of all reads with a Go
// map. Every pipeline variant must reproduce exactly this multiset.
func SerialCount(enc *dna.Encoding, reads [][]byte, k int) map[dna.Kmer]uint32 {
	m := make(map[dna.Kmer]uint32)
	for _, r := range reads {
		kmer.ForEach(enc, r, k, func(w dna.Kmer, _ int) { m[w]++ })
	}
	return m
}

// EqualToOracle compares a table against the oracle map, returning a
// description of the first difference, or "" when identical.
func (t *Table) EqualToOracle(oracle map[dna.Kmer]uint32) string {
	if uint64(len(oracle)) != uint64(t.Len()) {
		return fmt.Sprintf("distinct kmers: table %d, oracle %d", t.Len(), len(oracle))
	}
	var diff string
	t.ForEach(func(key uint64, c uint32) {
		if diff != "" {
			return
		}
		if want := oracle[dna.Kmer(key)]; want != c {
			diff = fmt.Sprintf("kmer %#x: table %d, oracle %d", key, c, want)
		}
	})
	return diff
}
