package kcount

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// ErrTableFull is returned when an insert exhausts the probe budget of a
// fixed-capacity atomic table.
var ErrTableFull = errors.New("kcount: atomic table full")

// AtomicTable is the fixed-capacity concurrent counter with the GPU kernel's
// semantics (§III-B.3): a slot is claimed by an atomic compare-and-swap on
// the key word, and the count is bumped with an atomic add — "both
// operations are handled atomically to avoid race conditions". Capacity is
// fixed between Reserve calls exactly like a device-resident table; inserting
// beyond capacity returns ErrTableFull.
//
// The slots live in segments so that Reserve can grow the table without
// abandoning the memory it has: one short segment while the table is smaller
// than a segment, whole segments of segSlots after that, and slot idx is
// segs[idx>>segBits] at idx&segMask either way.
type AtomicTable struct {
	segs   []segment
	mask   uint64
	load   float64 // the ceiling the capacity was sized for
	grows  int     // Reserve rehashes behind this table
	moved  int     // keys those rehashes re-inserted, in total
	n      atomic.Int64
	probes atomic.Uint64
}

// segSlots is 2¹⁶: a 2¹⁹-slot table, what a rank of the lr8 benchmark input
// ends with, is 8 segments and 16 allocations (2¹⁴ made it 64, and about 700
// more allocations a run), and a table that outgrows its short segment
// abandons at most 768 KB once.
const (
	segBits  = 16
	segSlots = 1 << segBits
	segMask  = segSlots - 1
)

// segment is a run of slots: keys biased (stored = key + 1; 0 = empty), and
// their counts.
type segment struct {
	keys   []atomic.Uint64
	counts []atomic.Uint32
}

func newSegment(slots int) segment {
	return segment{keys: make([]atomic.Uint64, slots), counts: make([]atomic.Uint32, slots)}
}

// slot returns the segment slot idx lies in and its index there: the slot's
// key word is seg.keys[in], its count seg.counts[in].
func (t *AtomicTable) slot(idx uint64) (seg *segment, in uint64) {
	return &t.segs[idx>>segBits], idx & segMask
}

// NewAtomicTable creates a table with capacity the next power of two above
// expected/maxLoad (maxLoad outside (0,1) defaults to 0.5). prob must be
// Linear (see Probing). The pipeline and the benchmark module always pass
// 0.5; the tests grow tables under other ceilings too.
func NewAtomicTable(expected int, maxLoad float64, prob Probing) *AtomicTable {
	if maxLoad <= 0 || maxLoad >= 1 {
		maxLoad = 0.5
	}
	t := &AtomicTable{load: maxLoad}
	t.extend(t.capacityFor(expected))
	return t
}

// capacityFor returns the slots a table of t's load ceiling takes to hold
// expected keys.
func (t *AtomicTable) capacityFor(expected int) int {
	if expected < 1 {
		expected = 1
	}
	want := int(float64(expected)/t.load) + 1
	return max(8, 1<<uint(bits.Len(uint(want-1))))
}

// extend appends the segments that take the table to capacity slots, a power
// of two no smaller than Cap(). Only a short first segment is ever replaced:
// by one as long as the capacity asks, up to a whole segment, holding the
// same slots.
func (t *AtomicTable) extend(capacity int) {
	if first := min(capacity, segSlots); len(t.segs) == 0 || len(t.segs[0].keys) < first {
		seg := newSegment(first)
		if len(t.segs) > 0 {
			short := t.segs[0]
			for i := range short.keys {
				seg.keys[i].Store(short.keys[i].Load())
				seg.counts[i].Store(short.counts[i].Load())
			}
		}
		t.segs = append(t.segs[:0], seg)
	}
	for len(t.segs)<<segBits < capacity {
		t.segs = append(t.segs, newSegment(segSlots))
	}
	t.mask = uint64(capacity - 1)
}

// Reserve makes room for incoming more distinct keys under the load ceiling
// the table was built with: nothing when it has the room, else the table
// grows to the capacity NewAtomicTable picks for Len()+incoming and its keys
// are rehashed under the new mask. This models the device-side rehash a
// fixed-memory GPU table needs when it outgrows its allocation. The rehash
// is uncharged by convention: no kernel is launched for it and no modeled
// time is booked. That is not because it is small — priced as a kernel (one
// thread per old slot) it measured +1.0 memory transactions per counted
// k-mer on the lr8 benchmark input, modeled count 5.75 → 8.62 ms — so
// Rehashed meters the work the convention leaves out.
//
// The table grows in place: the slots it has stay where they are, the new
// ones are appended behind them, and the only memory a Reserve allocates
// beyond the added slots is the rehash's bitmap. It must not run
// concurrently with Add or Get — growth is something a rank does between
// kernel launches, on its own goroutine. Probes() is not touched: it keeps
// counting inserts across the growth, and only inserts.
func (t *AtomicTable) Reserve(incoming int) {
	if incoming <= t.Room() {
		return
	}
	old, keys := t.Cap(), t.Len()
	t.extend(t.capacityFor(keys + incoming))
	t.grows++
	t.moved += keys
	if keys > 0 {
		t.rehash(old)
	}
}

// rehash moves the keys in the first old slots to where the grown mask puts
// them, in place and in one ascending pass over those slots. A slot is
// settled once a key has been placed in it under the new mask, and a settled
// slot is never vacated, so every placed key stays reachable from its home
// slot. Each old key in turn is lifted out of its slot and put in the first
// unsettled slot of its probe sequence; if an old key whose turn has not
// come sits there (a probe sequence that wrapped, in the old table or the
// new), that key is evicted and waits aside for its turn. Taking the keys in
// slot order whatever happens to their slots meanwhile makes the layout
// exactly the one that inserting them in that order into an empty table of
// the new capacity gives (the reference the tests compare every slot with):
// growing in place costs no later Add a probe, and the model no transaction.
func (t *AtomicTable) rehash(old int) {
	type entry struct {
		stored uint64
		count  uint32
	}
	settled := make([]uint64, (t.Cap()+63)/64)
	isSettled := func(idx uint64) bool { return settled[idx>>6]&(1<<(idx&63)) != 0 }
	evicted := map[uint64]entry{}
	for i := uint64(0); i < uint64(old); i++ {
		var e entry
		if isSettled(i) {
			// A key settled at i: what it found there, if anything, waits.
			if e = evicted[i]; e.stored != 0 {
				delete(evicted, i)
			}
		} else if seg, in := t.slot(i); seg.keys[in].Load() != 0 {
			e = entry{seg.keys[in].Load(), seg.counts[in].Load()}
			seg.keys[in].Store(0)
			seg.counts[in].Store(0)
		}
		if e.stored == 0 {
			continue
		}
		home := slotOf(e.stored-1, t.mask)
		for j := uint64(0); ; j++ {
			idx := (home + j) & t.mask
			if isSettled(idx) {
				continue
			}
			settled[idx>>6] |= 1 << (idx & 63)
			seg, in := t.slot(idx)
			if occupant := seg.keys[in].Load(); occupant != 0 {
				evicted[idx] = entry{occupant, seg.counts[in].Load()}
			}
			seg.keys[in].Store(e.stored)
			seg.counts[in].Store(e.count)
			break
		}
	}
}

// Cap returns the slot capacity.
func (t *AtomicTable) Cap() int { return int(t.mask) + 1 }

// Ceiling returns the most keys the table may hold under its load ceiling:
// ⌊load·Cap⌋.
func (t *AtomicTable) Ceiling() int { return int(t.load * float64(t.Cap())) }

// Room returns how many more distinct keys fit under the load ceiling. A
// kernel inserting at most Room() k-mers cannot push the table past it.
func (t *AtomicTable) Room() int { return t.Ceiling() - t.Len() }

// Grows returns how many Reserve rehashes the table has been through.
func (t *AtomicTable) Grows() int { return t.grows }

// Rehashed returns how many keys those rehashes re-inserted in total — the
// device work Reserve does not charge.
func (t *AtomicTable) Rehashed() int { return t.moved }

// Len returns the number of distinct keys currently stored.
func (t *AtomicTable) Len() int { return int(t.n.Load()) }

// Probes returns the cumulative number of slot inspections Add has made,
// across growths — the memory-traffic figure consumed by the GPU cost model.
// A rehash's moves are Rehashed's to count, not this counter's.
func (t *AtomicTable) Probes() uint64 { return t.probes.Load() }

// Add atomically increments key's count by delta, claiming a slot if the
// key is new. Safe for concurrent use. Returns whether the key was newly
// inserted, and the number of slots probed.
func (t *AtomicTable) Add(key uint64, delta uint32) (isNew bool, probes int, err error) {
	if key > MaxKey {
		panic("kcount: key collides with empty sentinel")
	}
	stored := key + 1
	home := slotOf(key, t.mask)
	for i := uint64(0); i <= t.mask; i++ {
		seg, in := t.slot((home + i) & t.mask)
		probes++
		cur := seg.keys[in].Load()
		if cur == 0 {
			if seg.keys[in].CompareAndSwap(0, stored) {
				// Slot claimed.
				seg.counts[in].Add(delta)
				t.n.Add(1)
				t.probes.Add(uint64(probes))
				return true, probes, nil
			}
			// Lost the race; re-read the winner's key.
			cur = seg.keys[in].Load()
		}
		if cur == stored {
			seg.counts[in].Add(delta)
			t.probes.Add(uint64(probes))
			return false, probes, nil
		}
	}
	t.probes.Add(uint64(probes))
	return false, probes, fmt.Errorf("%w (cap %d)", ErrTableFull, t.Cap())
}

// Inc is Add(key, 1).
func (t *AtomicTable) Inc(key uint64) (bool, int, error) { return t.Add(key, 1) }

// Get returns the count of key (0 if absent). Safe concurrently with Add,
// though counts read during insertion races may lag.
func (t *AtomicTable) Get(key uint64) uint32 {
	stored := key + 1
	home := slotOf(key, t.mask)
	for i := uint64(0); i <= t.mask; i++ {
		seg, in := t.slot((home + i) & t.mask)
		switch seg.keys[in].Load() {
		case 0:
			return 0
		case stored:
			return seg.counts[in].Load()
		}
	}
	return 0
}

// ForEach calls fn for every (key, count) pair, in slot order. Callers must
// ensure no concurrent writers.
func (t *AtomicTable) ForEach(fn func(key uint64, count uint32)) {
	for _, seg := range t.segs {
		for i := range seg.keys {
			if stored := seg.keys[i].Load(); stored != 0 {
				fn(stored-1, seg.counts[i].Load())
			}
		}
	}
}

// Snapshot copies the contents into a serial Table (for histogramming and
// reporting once the kernel has finished).
func (t *AtomicTable) Snapshot() *Table {
	out := NewTable(t.Len(), Linear)
	t.ForEach(func(k uint64, c uint32) { out.Add(k, c) })
	return out
}
