package kcount

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"dedukt/internal/hash"
)

// ErrTableFull is returned when an insert exhausts the probe budget of a
// fixed-capacity atomic table.
var ErrTableFull = errors.New("kcount: atomic table full")

// AtomicTable is the fixed-capacity concurrent counter with the GPU kernel's
// semantics (§III-B.3): a slot is claimed by an atomic compare-and-swap on
// the key word, and the count is bumped atomically — "both operations are
// handled atomically to avoid race conditions". Capacity is fixed between
// Reserve calls exactly like a device-resident table; inserting beyond
// capacity returns ErrTableFull.
//
// A slot is 9 B of host memory: the key word and a one-byte count lane (see
// the package doc), four lanes to a 32-bit word that an increment updates by
// a compare-and-swap. The rare increment whose count carries out of its lane
// into the side map takes the table's mutex for the map. The model is not
// the host layout: kernels.insert still prices the device's 4-byte atomicAdd
// on a 12-byte slot, so modeled times do not depend on it.
//
// A capacity is any multiple of 64 slots, so a table is sized to the keys it
// is asked to hold rather than to the next power of two. The slots live in
// segments so that Reserve can grow the table without abandoning the memory
// it has: whole segments of segSlots, then one short tail segment for the
// rest, and slot idx is segs[idx>>segBits] at idx&segMask either way.
type AtomicTable struct {
	segs   []segment
	cap    uint64  // slots: a multiple of capAlign
	load   float64 // the ceiling the capacity was sized for
	grows  int     // Reserve rehashes behind this table
	moved  int     // keys those rehashes re-inserted, in total
	n      atomic.Int64
	probes atomic.Uint64
	mu     sync.Mutex        // guards side
	side   map[uint64]uint32 // escaped keys' high counts, by stored key
}

// segSlots is 2¹⁶: the ≈ 348 k-slot table a rank of the lr8 benchmark input
// ends with is 5 whole segments and a tail, and a growth that replaces the
// tail abandons at most 576 KB.
const (
	segBits  = 16
	segSlots = 1 << segBits
	segMask  = segSlots - 1
)

// capAlign is the granularity of a capacity, and the smallest one.
const capAlign = 64

// segment is a run of slots: keys biased (stored = key + 1; 0 = empty), and
// their count lanes, four a word, slot in's in byte in%4 of lanes[in/4]. A
// segment's slots are a multiple of capAlign, so its lanes fill whole words.
type segment struct {
	keys  []atomic.Uint64
	lanes []atomic.Uint32
}

func newSegment(slots int) segment {
	return segment{keys: make([]atomic.Uint64, slots), lanes: make([]atomic.Uint32, slots/4)}
}

// lane returns slot in's lane.
func (seg *segment) lane(in uint64) uint8 {
	return uint8(seg.lanes[in/4].Load() >> (in % 4 * 8))
}

// setLane stores slot in's lane. Only a goroutine that owns the table, as
// Reserve does, may call it.
func (seg *segment) setLane(in uint64, lane uint8) {
	word, shift := &seg.lanes[in/4], in%4*8
	word.Store(word.Load()&^(0xff<<shift) | uint32(lane)<<shift)
}

// slot returns the segment slot idx lies in and its index there: the slot's
// key word is seg.keys[in], its lane seg.lane(in).
func (t *AtomicTable) slot(idx uint64) (seg *segment, in uint64) {
	return &t.segs[idx>>segBits], idx & segMask
}

// home returns key's home slot: the high word of its hash times the
// capacity, which spreads the hash over any capacity with one multiply. As
// the capacity grows a key's home only moves up, which the rehash relies on.
func (t *AtomicTable) home(key uint64) uint64 {
	hi, _ := bits.Mul64(hash.Mix64Seeded(key, tableSeed), t.cap)
	return hi
}

// next returns the slot probed after idx: the next one up, wrapping at Cap.
func (t *AtomicTable) next(idx uint64) uint64 {
	if idx++; idx == t.cap {
		return 0
	}
	return idx
}

// NewAtomicTable creates a table with the fewest slots that hold expected
// keys under the load ceiling maxLoad (outside (0,1) it defaults to 0.5).
// prob must be Linear (see Probing). The pipeline and the benchmark module
// always pass 0.5; the tests grow tables under other ceilings too.
func NewAtomicTable(expected int, maxLoad float64, prob Probing) *AtomicTable {
	if maxLoad <= 0 || maxLoad >= 1 {
		maxLoad = 0.5
	}
	t := &AtomicTable{load: maxLoad}
	t.extend(t.capacityFor(expected))
	return t
}

// capacityFor returns the slots a table of t's load ceiling takes to hold
// expected keys: a multiple of capAlign whose ceiling is at least expected.
func (t *AtomicTable) capacityFor(expected int) int {
	want := int(float64(max(expected, 1))/t.load) + 1
	return (want + capAlign - 1) / capAlign * capAlign
}

// extend takes the table to capacity slots, no fewer than Cap(): the tail
// segment, if there is one, is replaced by a whole segment or by a longer
// tail holding the same slots, and whole segments and a new tail are
// appended behind it. Every other segment stays where it is.
func (t *AtomicTable) extend(capacity int) {
	whole, tail := capacity>>segBits, capacity&segMask
	if n := len(t.segs); n > 0 && len(t.segs[n-1].keys) < segSlots {
		short, size := t.segs[n-1], segSlots
		if n-1 == whole {
			size = tail
		}
		seg := newSegment(size)
		for i := range short.keys {
			seg.keys[i].Store(short.keys[i].Load())
		}
		for i := range short.lanes {
			seg.lanes[i].Store(short.lanes[i].Load())
		}
		t.segs[n-1] = seg
	}
	for len(t.segs) < whole {
		t.segs = append(t.segs, newSegment(segSlots))
	}
	if tail > 0 && len(t.segs) == whole {
		t.segs = append(t.segs, newSegment(tail))
	}
	t.cap = uint64(capacity)
}

// Reserve makes room for incoming more distinct keys under the load ceiling
// the table was built with: nothing when it has the room, else the table
// grows to the capacity NewAtomicTable picks for Len()+incoming and its keys
// are rehashed to their homes under it. This models the device-side rehash a
// fixed-memory GPU table needs when it outgrows its allocation. The rehash
// is uncharged by convention: no kernel is launched for it and no modeled
// time is booked. That is not because it is small — priced as a kernel (one
// thread per old slot) it measured +1.0 memory transactions per counted
// k-mer on the lr8 benchmark input, modeled count 5.75 → 8.62 ms — so
// Rehashed meters the work the convention leaves out.
//
// The table grows in place: the slots it has stay where they are (a short
// tail is copied into its replacement), the new ones are appended behind
// them, and the only memory a Reserve allocates beyond the added slots is
// the rehash's bitmap. Lanes move with their keys; the side map, keyed by
// key, is not touched. It must not run concurrently with Add or Get — growth
// is something a rank does between kernel launches, on its own goroutine.
// Probes() is not touched: it keeps counting inserts across the growth, and
// only inserts.
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

// rehash moves the keys in the first old slots to their homes under the
// grown capacity, in place and in one descending pass over those slots. A
// slot is settled once a key has been placed in it under the new capacity,
// and a settled slot is never vacated, so every placed key stays reachable
// from its home slot. Each old key in turn is lifted out of its slot and put
// in the first unsettled slot of its probe sequence; if an old key whose turn
// has not come sits there, that key is evicted and waits aside for its turn.
// A home only moves up as the capacity grows, so walking down puts nearly
// every key above the slots still to come: evictions are left to the probe
// sequences that wrap, where walking up would evict nearly every key. Taking
// the keys in slot order whatever happens to their slots meanwhile makes the
// layout exactly the one that inserting them in descending slot order into an
// empty table of the new capacity gives (the reference the tests compare
// every slot with): growing in place costs no later Add a probe, and the
// model no transaction.
func (t *AtomicTable) rehash(old int) {
	type entry struct {
		stored uint64
		lane   uint8
	}
	settled := make([]uint64, (t.cap+63)/64)
	isSettled := func(idx uint64) bool { return settled[idx>>6]&(1<<(idx&63)) != 0 }
	evicted := map[uint64]entry{}
	for i := uint64(old); i > 0; {
		i--
		var e entry
		if isSettled(i) {
			// A key settled at i: what it found there, if anything, waits.
			if e = evicted[i]; e.stored != 0 {
				delete(evicted, i)
			}
		} else if seg, in := t.slot(i); seg.keys[in].Load() != 0 {
			e = entry{seg.keys[in].Load(), seg.lane(in)}
			seg.keys[in].Store(0)
			seg.setLane(in, 0)
		}
		if e.stored == 0 {
			continue
		}
		idx := t.home(e.stored - 1)
		for isSettled(idx) {
			idx = t.next(idx)
		}
		settled[idx>>6] |= 1 << (idx & 63)
		seg, in := t.slot(idx)
		if occupant := seg.keys[in].Load(); occupant != 0 {
			evicted[idx] = entry{occupant, seg.lane(in)}
		}
		seg.keys[in].Store(e.stored)
		seg.setLane(in, e.lane)
	}
}

// Cap returns the slot capacity.
func (t *AtomicTable) Cap() int { return int(t.cap) }

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
	idx := t.home(key)
	for i := uint64(0); i < t.cap; i, idx = i+1, t.next(idx) {
		seg, in := t.slot(idx)
		probes++
		// The lane's word is read beside the key, so that the two reads
		// overlap: the compare-and-swap below needs the word's value.
		word, shift := &seg.lanes[in/4], in%4*8
		cur, old := seg.keys[in].Load(), word.Load()
		if cur == 0 {
			if seg.keys[in].CompareAndSwap(0, stored) {
				// Slot claimed.
				t.n.Add(1)
				isNew, cur = true, stored
			} else {
				// Lost the race; re-read the winner's key.
				cur = seg.keys[in].Load()
			}
		}
		if cur == stored {
			lane, carry := addToLane(uint8(old>>shift), delta)
			for !word.CompareAndSwap(old, old&^(0xff<<shift)|uint32(lane)<<shift) {
				old = word.Load()
				lane, carry = addToLane(uint8(old>>shift), delta)
			}
			t.probes.Add(uint64(probes))
			if carry != 0 {
				t.carry(stored, carry)
			}
			return isNew, probes, nil
		}
	}
	t.probes.Add(uint64(probes))
	return false, probes, fmt.Errorf("%w (cap %d)", ErrTableFull, t.Cap())
}

// carry adds the carry out of a lane to its key's side-map entry.
func (t *AtomicTable) carry(stored uint64, carry uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.side == nil {
		t.side = map[uint64]uint32{}
	}
	t.side[stored] += carry
}

// count returns the count of the key stored in slot in of seg. An escaped
// lane is read again under the mutex, so a count read while its key carries
// can lag the increments in flight but never runs ahead of them.
func (t *AtomicTable) count(seg *segment, in, stored uint64) uint32 {
	if lane := seg.lane(in); lane&escapedLane == 0 {
		return uint32(lane)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return escapedCount(seg.lane(in), t.side[stored])
}

// Escaped returns how many keys are escaped: their counts have reached 128
// and live partly in the side map.
func (t *AtomicTable) Escaped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.side)
}

// Inc is Add(key, 1).
func (t *AtomicTable) Inc(key uint64) (bool, int, error) { return t.Add(key, 1) }

// Get returns the count of key (0 if absent). Safe concurrently with Add,
// though counts read during insertion races may lag.
func (t *AtomicTable) Get(key uint64) uint32 {
	stored := key + 1
	idx := t.home(key)
	for i := uint64(0); i < t.cap; i, idx = i+1, t.next(idx) {
		seg, in := t.slot(idx)
		switch seg.keys[in].Load() {
		case 0:
			return 0
		case stored:
			return t.count(seg, in, stored)
		}
	}
	return 0
}

// ForEach calls fn for every (key, count) pair, in slot order. Callers must
// ensure no concurrent writers.
func (t *AtomicTable) ForEach(fn func(key uint64, count uint32)) {
	for s := range t.segs {
		seg := &t.segs[s]
		for i := range seg.keys {
			if stored := seg.keys[i].Load(); stored != 0 {
				fn(stored-1, t.count(seg, uint64(i), stored))
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
