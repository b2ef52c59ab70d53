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
		out[i] = KV{seg.keys[in].Load(), seg.counts[in].Load()}
	}
	return out
}

// reserveChecked calls table.Reserve(incoming) and checks everything Reserve
// promises: the capacity NewAtomicTable picks for Len()+incoming, the grow
// and rehashed-key meters, an untouched probe counter, every key of the
// oracle behind Len, Get and ForEach — and, slot for slot, the layout of the
// reference rehash: a new table of that capacity that takes the old slots'
// keys in slot order.
func reserveChecked(t testing.TB, table *AtomicTable, incoming int, oracle map[uint64]uint32) {
	t.Helper()
	before := slotsOf(table)
	keys, grows, moved, probes := table.Len(), table.Grows(), table.Rehashed(), table.Probes()
	want := before
	if incoming > table.Room() {
		ref := NewAtomicTable(keys+incoming, table.load, Linear)
		for _, s := range before {
			if s.Key != 0 {
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

// TestAtomicReserveInPlace grows tables from 8 slots to 2¹⁸ against a Go
// map, at a load ceiling that keeps clusters short and one that makes them
// wrap: Reserves that double, one that skips doublings (room for 5× the keys
// held), below a segment, across the boundary and above it.
func TestAtomicReserveInPlace(t *testing.T) {
	for _, load := range []float64{0.5, 0.9} {
		t.Run(fmt.Sprintf("linear, load %.1f", load), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(load * 100)))
			table := NewAtomicTable(4, load, Linear)
			oracle := map[uint64]uint32{}
			var held []uint64
			reserves := 0
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
				incoming := table.Len() / 2 // the next power of two
				if reserves == 4 {
					incoming = 5 * table.Len()
				}
				reserveChecked(t, table, incoming, oracle)
				reserves++
			}
			t.Logf("%d reserves, %d keys rehashed in all, %d held in %d slots", reserves, table.Rehashed(), table.Len(), table.Cap())
			if table.Grows() != reserves || reserves < 12 {
				t.Fatalf("%d grows behind %d reserves, want a dozen or more", table.Grows(), reserves)
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

// TestAtomicReserveAllocatesTheAddedSlots: growing a half-full 2¹⁸-slot table
// to 2¹⁹ allocates the 2¹⁸ slots it adds and the rehash's bitmap, not a
// second table of 2¹⁹.
func TestAtomicReserveAllocatesTheAddedSlots(t *testing.T) {
	const slots = 1 << 18
	table := NewAtomicTable(slots/2-1, 0.5, Linear)
	for key := uint64(0); table.Room() > 0; key++ {
		table.Inc(key)
	}
	if table.Cap() != slots {
		t.Fatalf("%d slots, want %d", table.Cap(), slots)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	table.Reserve(1)
	runtime.ReadMemStats(&after)
	if table.Cap() != 2*slots {
		t.Fatalf("grew to %d slots, want %d", table.Cap(), 2*slots)
	}
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(12*slots+2*slots/8)*105/100
	t.Logf("allocated %d B growing %d slots to %d, budget %d", got, slots, 2*slots, budget)
	if got > budget {
		t.Fatalf("allocated %d B, budget %d (12 B for each of the %d added slots, the bitmap, 5 %%)", got, budget, slots)
	}
}

// FuzzAtomicReserve reads the input as a sequence of adds and reserves on one
// table, checked against a map and the reference rehash after every reserve.
// The first byte picks the load ceiling; an add is a byte of
// key, spread over the slots by the table's own hash and dense enough to
// repeat, and one of delta.
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
		table := NewAtomicTable(1, load, Linear)
		oracle := map[uint64]uint32{}
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			if ops[0] == 0xff {
				reserveChecked(t, table, int(ops[1])*int(ops[1]), oracle)
				continue
			}
			key, delta := uint64(ops[0])|uint64(ops[1]&0xf0)<<4, uint32(ops[1]&0xf)
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
