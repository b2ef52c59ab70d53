package kcount

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// slotsOf returns the table's slots as they lie: the stored (biased) key and
// count of each, zero for an empty one.
func slotsOf(table *AtomicTable) []KV {
	out := make([]KV, table.Cap())
	for i := range out {
		seg, in := table.slot(uint64(i))
		stored := seg.keys[in].Load()
		out[i] = KV{stored, table.count(seg, in, stored)}
	}
	return out
}

// reserveChecked calls table.Reserve(incoming) and checks everything Reserve
// promises: the capacity NewAtomicTable picks for Len()+incoming, the grow
// and rehashed-key meters, an untouched probe counter, every key of the
// oracle behind Len, Get and ForEach — and, slot for slot, the layout of the
// reference rehash: a new table of that capacity that takes the old slots'
// keys in descending slot order.
func reserveChecked(t testing.TB, table *AtomicTable, incoming int, oracle map[uint64]uint32) {
	t.Helper()
	before := slotsOf(table)
	keys, grows, moved, probes := table.Len(), table.Grows(), table.Rehashed(), table.Probes()
	want := before
	if incoming > table.Room() {
		ref := NewAtomicTable(keys+incoming, table.load, Linear)
		for i := len(before) - 1; i >= 0; i-- {
			if s := before[i]; s.Key != 0 {
				if _, _, err := ref.Add(s.Key-1, s.Count); err != nil {
					t.Fatal(err)
				}
			}
		}
		want = slotsOf(ref)
		grows, moved = grows+1, moved+keys
	}

	table.Reserve(incoming)

	if table.Cap() != len(want) || table.Room() < incoming {
		t.Fatalf("Reserve(%d) of %d keys in %d slots: %d slots with room for %d, want %d slots", incoming, keys, len(before), table.Cap(), table.Room(), len(want))
	}
	if table.Grows() != grows || table.Rehashed() != moved || table.Probes() != probes {
		t.Fatalf("Reserve(%d): %d grows, %d keys rehashed, %d probes; want %d, %d, %d", incoming, table.Grows(), table.Rehashed(), table.Probes(), grows, moved, probes)
	}
	if table.Len() != len(oracle) {
		t.Fatalf("Reserve(%d): Len %d, want %d", incoming, table.Len(), len(oracle))
	}
	for key, count := range oracle {
		if got := table.Get(key); got != count {
			t.Fatalf("Reserve(%d): Get(%#x) = %d, want %d", incoming, key, got, count)
		}
	}
	seen := 0
	table.ForEach(func(key uint64, count uint32) {
		if seen++; oracle[key] != count {
			t.Fatalf("Reserve(%d): ForEach gave %#x = %d, want %d", incoming, key, count, oracle[key])
		}
	})
	if seen != len(oracle) {
		t.Fatalf("Reserve(%d): ForEach gave %d keys, want %d", incoming, seen, len(oracle))
	}
	for i, got := range slotsOf(table) {
		if got != want[i] {
			t.Fatalf("Reserve(%d): slot %d of %d holds %v, the reference rehash puts %v there", incoming, i, len(want), got, want[i])
		}
	}
}

// wrapped returns how many of the table's keys sit below their home slot:
// their probe sequences wrapped past the last slot.
func wrapped(table *AtomicTable) int {
	n := 0
	for i, s := range slotsOf(table) {
		if s.Key != 0 && uint64(i) < table.home(s.Key-1) {
			n++
		}
	}
	return n
}

// TestAtomicReserveInPlace grows tables from 64 slots to past 2¹⁸ against a
// Go map, at a load ceiling that keeps clusters short and one that makes
// probe sequences wrap: Reserves of uneven sizes, so that nearly every
// capacity is no power of two and ends in a short tail segment, one that
// grows by a single capAlign, one that skips far ahead (room for 5× the keys
// held), below a segment, across the boundary and above it.
func TestAtomicReserveInPlace(t *testing.T) {
	for _, load := range []float64{0.5, 0.9} {
		t.Run(fmt.Sprintf("linear, load %.1f", load), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(load * 100)))
			table := NewAtomicTable(4, load, Linear)
			oracle := map[uint64]uint32{}
			var held []uint64
			reserves, tails, wraps := 0, 0, 0
			for table.Cap() < 1<<18 {
				// Fill to the ceiling — every third time past it, which a
				// table allows while it has empty slots — mixing new keys
				// with ones it holds.
				over := 0
				if reserves%3 == 2 {
					over = (table.Cap() - table.Ceiling()) / 8
				}
				for table.Room()+over > 0 {
					key := rng.Uint64() >> 1
					if len(held) > 0 && rng.Intn(4) == 0 {
						key = held[rng.Intn(len(held))]
					}
					delta := uint32(1 + rng.Intn(9))
					isNew, _, err := table.Add(key, delta)
					if err != nil {
						t.Fatal(err)
					}
					if isNew {
						held = append(held, key)
					}
					oracle[key] += delta
				}
				wraps += wrapped(table)
				incoming := table.Len()/3 + rng.Intn(table.Len()/2+1)
				switch reserves {
				case 2:
					incoming = table.Room() + 1 // one capAlign more
				case 4:
					incoming = 5 * table.Len()
				}
				reserveChecked(t, table, incoming, oracle)
				if table.Cap()&segMask != 0 {
					tails++
				}
				reserves++
			}
			t.Logf("%d reserves, %d keys rehashed in all, %d held in %d slots, %d capacities with a tail, %d wrapped keys met", reserves, table.Rehashed(), table.Len(), table.Cap(), tails, wraps)
			if table.Grows() != reserves || reserves < 12 {
				t.Fatalf("%d grows behind %d reserves, want a dozen or more", table.Grows(), reserves)
			}
			if tails < reserves-1 || (load > 0.5 && wraps == 0) {
				t.Fatalf("%d of %d capacities had a tail segment and %d keys wrapped: the walk was not exercised", tails, reserves, wraps)
			}
		})
	}
}

// TestAtomicProbesAcrossReserve: Probes() is the slot inspections of the
// Adds made, before and after a growth alike, and none of the rehash's.
func TestAtomicProbesAcrossReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := NewAtomicTable(1_000, 0.5, Linear)
	var sum uint64
	add := func(n int) {
		for i := 0; i < n; i++ {
			_, probes, err := table.Inc(uint64(rng.Intn(4_000)))
			if err != nil {
				t.Fatal(err)
			}
			sum += uint64(probes)
		}
	}
	add(1_000)
	table.Reserve(4_000)
	if table.Grows() != 1 {
		t.Fatalf("%d grows, want 1", table.Grows())
	}
	add(6_000)
	if table.Probes() != sum {
		t.Fatalf("Probes() = %d, the Adds returned %d in all", table.Probes(), sum)
	}
}

// TestAtomicConcurrentAddAfterReserve: a table that has grown in place, from
// a short segment to several whole ones, takes concurrent Adds like one built
// at that size.
func TestAtomicConcurrentAddAfterReserve(t *testing.T) {
	const workers, perWorker, keySpace = 4, 50_000, 60_000
	table := NewAtomicTable(1_000, 0.5, Linear)
	for key := uint64(0); key < 1_000; key++ {
		table.Add(key*61, 1)
	}
	table.Reserve(keySpace)
	table.Reserve(2 * keySpace)
	if table.Grows() != 2 || len(table.segs) < 4 {
		t.Fatalf("%d grows into %d segments, want 2 into 4 or more", table.Grows(), len(table.segs))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				if _, _, err := table.Inc(uint64(rng.Intn(keySpace))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	var total uint64
	table.ForEach(func(_ uint64, c uint32) { total += uint64(c) })
	if total != 1_000+workers*perWorker {
		t.Fatalf("counts sum to %d, want %d", total, 1_000+workers*perWorker)
	}
	for key := uint64(0); key < 1_000; key++ {
		if table.Get(key*61) == 0 {
			t.Fatalf("key %d, held before the growth, is gone", key*61)
		}
	}
}

// TestAtomicReserveAllocatesTheAddedSlots: growing a table at its ceiling,
// of whole segments and a short tail, allocates the slots it adds, 9 B each
// (a key word and a lane), a copy of the tail it replaces and the rehash's
// bitmap — not a second table, nor a 4-byte count a slot — both
// when the tail becomes a whole segment behind which a new tail is appended,
// and when it is replaced by a longer tail. The descending walk keeps the
// evicted keys few: walking up evicted nearly every one, and their side map
// alone took several times that budget.
func TestAtomicReserveAllocatesTheAddedSlots(t *testing.T) {
	table := NewAtomicTable(100_000, 0.5, Linear)
	key := uint64(0)
	for _, incoming := range []int{60_000, 3_000} {
		for ; table.Room() > 0; key++ {
			table.Inc(key)
		}
		slots, tail := table.Cap(), table.Cap()&segMask
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		table.Reserve(incoming)
		runtime.ReadMemStats(&after)
		if tail == 0 || table.Cap()&segMask == 0 || table.Cap() >= 2*slots {
			t.Fatalf("grew %d slots to %d, want a tail before and after and no doubling", slots, table.Cap())
		}
		got, budget := after.TotalAlloc-before.TotalAlloc, uint64(9*(table.Cap()-slots+tail)+table.Cap()/8)*105/100
		t.Logf("allocated %d B growing %d slots to %d, budget %d", got, slots, table.Cap(), budget)
		if got > budget {
			t.Fatalf("allocated %d B, budget %d (9 B for each of the %d added slots and the %d-slot tail copied, the bitmap, 5 %%)", got, budget, table.Cap()-slots, tail)
		}
	}
}

// fuzzDelta decodes the delta of a fuzzed add from the low nibble of b:
// itself, but 0xf stands for 250, so that a few adds to one key carry its
// count out of its lane.
func fuzzDelta(b byte) uint32 {
	if d := uint32(b & 0xf); d != 0xf {
		return d
	}
	return 250
}

// FuzzAtomicReserve reads the input as a sequence of adds and reserves on one
// table, checked against a map and the reference rehash after every reserve.
// The first byte picks the load ceiling and the keys the table starts sized
// for — up to 63 000, so some tables start past a whole segment and every
// capacity but the smallest ends in a short tail; an add is a byte of key,
// spread over the slots by the table's own hash and dense enough to repeat,
// and one whose high nibble widens the key and whose low nibble is the delta,
// 0xf standing for 250 so that a few adds to one key escape its lane; a
// reserve asks for the square of a byte, any multiple of capAlign the growth
// lands on.
func FuzzAtomicReserve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 1, 3, 1, 0xff, 9, 4, 1, 0xff, 0})
	f.Add([]byte{3, 0xff, 200, 7, 2, 0xff, 0, 7, 1})
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{64, 1_024, 8_192} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		load := 0.5
		if ops[0]&2 != 0 {
			load = 0.9
		}
		table := NewAtomicTable(1+int(ops[0]>>2)*1_000, load, Linear)
		oracle := map[uint64]uint32{}
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			if ops[0] == 0xff {
				reserveChecked(t, table, int(ops[1])*int(ops[1]), oracle)
				continue
			}
			key, delta := uint64(ops[0])|uint64(ops[1]&0xf0)<<4, fuzzDelta(ops[1])
			if table.Len() == table.Cap()-1 {
				reserveChecked(t, table, 1, oracle) // keep an empty slot: Get ends on one
			}
			if _, _, err := table.Add(key, delta); err != nil {
				t.Fatal(err)
			}
			oracle[key] += delta
		}
		reserveChecked(t, table, table.Len(), oracle)
	})
}
