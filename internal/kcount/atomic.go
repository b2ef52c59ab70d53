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
// fixed at construction exactly like a device-resident table; inserting
// beyond capacity returns ErrTableFull.
type AtomicTable struct {
	keys   []atomic.Uint64 // biased: stored = key + 1; 0 = empty
	counts []atomic.Uint32
	mask   uint64
	prob   Probing
	load   float64 // the ceiling the capacity was sized for
	grows  int     // Reserve rehashes behind this table
	moved  int     // keys those rehashes re-inserted, in total
	n      atomic.Int64
	probes atomic.Uint64
}

// NewAtomicTable creates a table with capacity the next power of two above
// expected/maxLoad (maxLoad 0 defaults to 0.5).
func NewAtomicTable(expected int, maxLoad float64, prob Probing) *AtomicTable {
	if maxLoad <= 0 || maxLoad >= 1 {
		maxLoad = 0.5
	}
	if expected < 1 {
		expected = 1
	}
	want := int(float64(expected)/maxLoad) + 1
	capacity := 1 << uint(bits.Len(uint(want-1)))
	if capacity < 8 {
		capacity = 8
	}
	return &AtomicTable{
		keys:   make([]atomic.Uint64, capacity),
		counts: make([]atomic.Uint32, capacity),
		mask:   uint64(capacity - 1),
		prob:   prob,
		load:   maxLoad,
	}
}

// Reserve returns a table with room for incoming more distinct keys under
// the load ceiling t was built with: t itself when it has the room, else a
// rehash of t into a table sized for Len()+incoming. This models the
// device-side rehash a fixed-memory GPU table needs when it outgrows its
// allocation. The rehash is uncharged by convention: no kernel is launched
// for it and no modeled time is booked. That is not because it is small —
// priced as a kernel (one thread per old slot) it measured +1.0 memory
// transactions per counted k-mer on the lr8 benchmark input, modeled count
// 5.75 → 8.62 ms — so Rehashed meters the work the convention leaves out.
func (t *AtomicTable) Reserve(incoming int) (*AtomicTable, error) {
	if incoming <= t.Room() {
		return t, nil
	}
	bigger := NewAtomicTable(t.Len()+incoming, t.load, t.prob)
	bigger.grows, bigger.moved = t.grows+1, t.moved+t.Len()
	for i := range t.keys {
		if stored := t.keys[i].Load(); stored != 0 {
			// Sized for every key, so this cannot fill in practice;
			// surface it as an error rather than a panic regardless.
			if _, _, err := bigger.Add(stored-1, t.counts[i].Load()); err != nil {
				return nil, err
			}
		}
	}
	return bigger, nil
}

// Cap returns the slot capacity.
func (t *AtomicTable) Cap() int { return len(t.keys) }

// Ceiling returns the most keys the table may hold under its load ceiling:
// ⌊load·Cap⌋.
func (t *AtomicTable) Ceiling() int { return int(t.load * float64(t.Cap())) }

// Room returns how many more distinct keys fit under the load ceiling. A
// kernel inserting at most Room() k-mers cannot push the table past it.
func (t *AtomicTable) Room() int { return t.Ceiling() - t.Len() }

// Grows returns how many Reserve rehashes produced this table.
func (t *AtomicTable) Grows() int { return t.grows }

// Rehashed returns how many keys those rehashes re-inserted in total — the
// device work Reserve does not charge.
func (t *AtomicTable) Rehashed() int { return t.moved }

// Len returns the number of distinct keys currently stored.
func (t *AtomicTable) Len() int { return int(t.n.Load()) }

// Probes returns the cumulative number of slot inspections, the memory-
// traffic figure consumed by the GPU cost model.
func (t *AtomicTable) Probes() uint64 { return t.probes.Load() }

// Add atomically increments key's count by delta, claiming a slot if the
// key is new. Safe for concurrent use. Returns whether the key was newly
// inserted, and the number of slots probed.
func (t *AtomicTable) Add(key uint64, delta uint32) (isNew bool, probes int, err error) {
	if key > MaxKey {
		panic("kcount: key collides with empty sentinel")
	}
	stored := key + 1
	slot := slotOf(key, t.mask)
	capacity := uint64(len(t.keys))
	for i := uint64(0); i < capacity; i++ {
		idx := (slot + t.prob.step(i)) & t.mask
		probes++
		cur := t.keys[idx].Load()
		if cur == 0 {
			if t.keys[idx].CompareAndSwap(0, stored) {
				// Slot claimed.
				t.counts[idx].Add(delta)
				t.n.Add(1)
				t.probes.Add(uint64(probes))
				return true, probes, nil
			}
			// Lost the race; re-read the winner's key.
			cur = t.keys[idx].Load()
		}
		if cur == stored {
			t.counts[idx].Add(delta)
			t.probes.Add(uint64(probes))
			return false, probes, nil
		}
	}
	t.probes.Add(uint64(probes))
	return false, probes, fmt.Errorf("%w (cap %d)", ErrTableFull, capacity)
}

// Inc is Add(key, 1).
func (t *AtomicTable) Inc(key uint64) (bool, int, error) { return t.Add(key, 1) }

// Get returns the count of key (0 if absent). Safe concurrently with Add,
// though counts read during insertion races may lag.
func (t *AtomicTable) Get(key uint64) uint32 {
	stored := key + 1
	slot := slotOf(key, t.mask)
	capacity := uint64(len(t.keys))
	for i := uint64(0); i < capacity; i++ {
		idx := (slot + t.prob.step(i)) & t.mask
		switch t.keys[idx].Load() {
		case 0:
			return 0
		case stored:
			return t.counts[idx].Load()
		}
	}
	return 0
}

// ForEach calls fn for every (key, count) pair. Callers must ensure no
// concurrent writers.
func (t *AtomicTable) ForEach(fn func(key uint64, count uint32)) {
	for i := range t.keys {
		if stored := t.keys[i].Load(); stored != 0 {
			fn(stored-1, t.counts[i].Load())
		}
	}
}

// Snapshot copies the contents into a serial Table (for histogramming and
// reporting once the kernel has finished).
func (t *AtomicTable) Snapshot() *Table {
	out := NewTable(t.Len(), t.prob)
	t.ForEach(func(k uint64, c uint32) { out.Add(k, c) })
	return out
}
