package kcount

import (
	"math/rand"
	"testing"
)

// tableReserveChecked calls table.Reserve(more) and checks what it promises
// against ladder, a table that took the same adds and never a Reserve: the
// returned room is enough and is what Reserve(0) reads again; the capacity is
// the smallest doubling of the old one whose ceiling holds Len()+more, so the
// ladder's own once the keys are in; one rehash accounted, of the keys held,
// or none; Probes untouched; and the same contents.
func tableReserveChecked(t testing.TB, table, ladder *Table, more int) {
	t.Helper()
	slots, keys, grows, moved, probes := table.Cap(), table.Len(), table.Grows(), table.Rehashed(), table.Probes
	want := slots
	for keys+more > ceilingOf(want) {
		want *= 2
	}
	if want > slots {
		grows, moved = grows+1, moved+keys
	}

	room := table.Reserve(more)

	if table.Cap() != want || room < more || room != ceilingOf(want)-keys || room != table.Reserve(0) {
		t.Fatalf("Reserve(%d) of %d keys in %d slots: %d slots with room for %d, want %d slots", more, keys, slots, table.Cap(), room, want)
	}
	if table.Grows() != grows || table.Rehashed() != moved || table.Probes != probes {
		t.Fatalf("Reserve(%d): %d grows, %d keys rehashed, %d probes; want %d, %d, %d", more, table.Grows(), table.Rehashed(), table.Probes, grows, moved, probes)
	}
	tablesEqual(t, table, ladder)
}

// tablesEqual checks that got holds exactly want's keys and counts, behind
// Len, Get and ForEach.
func tablesEqual(t testing.TB, got, want *Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, the ladder's table has %d", got.Len(), want.Len())
	}
	want.ForEach(func(key uint64, count uint32) {
		if c := got.Get(key); c != count {
			t.Fatalf("Get(%#x) = %d, the ladder's table has %d", key, c, count)
		}
	})
	seen := 0
	got.ForEach(func(key uint64, count uint32) {
		if seen++; want.Get(key) != count {
			t.Fatalf("ForEach gave %#x = %d, the ladder's table has %d", key, count, want.Get(key))
		}
	})
	if seen != want.Len() {
		t.Fatalf("ForEach gave %d keys, want %d", seen, want.Len())
	}
}

// TestTableReserve: a reserved table holds what a plain-ladder table holds;
// it does not grow while no more new keys than it
// reserved for are added, however many increments come with them; once they
// are in it has the ladder's capacity, by one rehash where the ladder doubled
// a dozen times; and a Reserve that fits the room is free.
func TestTableReserve(t *testing.T) {
	t.Run("linear", func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		table, ladder := NewTable(1, Linear), NewTable(1, Linear)
		add := func(key uint64, delta uint32) bool {
			ladder.Add(key, delta)
			return table.Add(key, delta)
		}
		next := uint64(0) // keys below next are held
		for _, more := range []int{0, 1, 5, 6, 100, 3, 40_000, 0, 7_000, 200_000} {
			tableReserveChecked(t, table, ladder, more)
			slots, grows := table.Cap(), table.Grows()
			for fresh := 0; fresh < more; {
				// One add in three brings a new key, the others repeat one held.
				key := next
				isFresh := next == 0 || rng.Intn(3) == 0
				if isFresh {
					next++
					fresh++
				} else {
					key = uint64(rng.Int63n(int64(next)))
				}
				if isNew := add(key*0x9e3779b97f4a7c15>>8, uint32(rng.Intn(3)+1)); isNew != isFresh {
					t.Fatalf("Add of key %d reported new = %v with %d held", key, isNew, next)
				}
			}
			if table.Cap() != slots || table.Grows() != grows {
				t.Fatalf("%d new keys after Reserve(%d) took the table from %d slots to %d", more, more, slots, table.Cap())
			}
			tablesEqual(t, table, ladder)
			if table.Cap() != ladder.Cap() {
				t.Fatalf("%d slots for %d keys, the ladder ends with %d", table.Cap(), table.Len(), ladder.Cap())
			}
		}
		if table.Grows() >= ladder.Grows() || table.Rehashed() >= ladder.Rehashed() {
			t.Fatalf("%d grows and %d keys rehashed, the ladder %d and %d", table.Grows(), table.Rehashed(), ladder.Grows(), ladder.Rehashed())
		}
	})
}

// TestTableIncAtCeilingDoesNotGrow: a table holding ⌊0.7·Cap⌋ keys is where
// a well-aimed Reserve leaves it, and incrementing the keys it holds must
// leave it there. Add used to test the ceiling before it knew the key was
// new, and doubled on the first increment.
func TestTableIncAtCeilingDoesNotGrow(t *testing.T) {
	table := NewTable(1, Linear)
	table.Reserve(700)
	slots := table.Cap()
	held := ceilingOf(slots)
	for key := 0; key < held; key++ {
		table.Inc(uint64(key))
	}
	if table.Cap() != slots || table.Reserve(0) != 0 {
		t.Fatalf("%d keys took a table of %d slots to %d with room for %d, want it full at its ceiling", held, slots, table.Cap(), table.Reserve(0))
	}
	for i := 0; i < 1_000_000; i++ {
		if table.Inc(uint64(i % held)) {
			t.Fatalf("Inc of held key %d reported it new", i%held)
		}
	}
	if table.Cap() != slots || table.Grows() != 1 {
		t.Fatalf("a million Incs of held keys took the table from %d slots to %d (%d grows)", slots, table.Cap(), table.Grows())
	}
	if !table.Inc(uint64(held)) || table.Cap() != 2*slots || table.Get(0) != 1+1_000_000/uint32(held)+1 {
		t.Fatalf("a new key at the ceiling: %d slots, want %d; Get(0) = %d", table.Cap(), 2*slots, table.Get(0))
	}
}

// TestTableProbesAcrossGrowth: Probes counts the slots Add's inserts
// inspected in the table they landed in, whatever rehashes — Add's own or
// Reserve's — came between.
func TestTableProbesAcrossGrowth(t *testing.T) {
	table := NewTable(1, Linear)
	var want uint64
	for i := uint64(0); i < 5_000; i++ {
		if i == 1_000 {
			before := table.Probes
			if table.Reserve(1_500); table.Probes != before {
				t.Fatalf("Reserve took Probes from %d to %d", before, table.Probes)
			}
		}
		key := i * 0x9e3779b97f4a7c15 >> 1
		grows, before := table.Grows(), table.Probes
		table.Add(key, 1)
		if table.Grows() == grows {
			want += table.Probes - before
			continue
		}
		// The add grew the table: what it is charged is the probe sequence
		// that found the empty slot under the new mask.
		probes := uint64(1)
		for slot := slotOf(key, table.mask); table.keys[slot] != key+1; slot = (slot + 1) & table.mask {
			probes++
		}
		if got := table.Probes - before; got != probes {
			t.Fatalf("the add that grew the table to %d slots was charged %d probes, its insert took %d", table.Cap(), got, probes)
		}
		want += probes
	}
	if table.Probes != want || table.Grows() < 5 {
		t.Fatalf("Probes = %d after %d grows, the adds were charged %d", table.Probes, table.Grows(), want)
	}
}

// FuzzTableReserve drives a reserved table and a plain-ladder one through the
// same byte-coded adds, with Reserves only the first sees, each checked by
// tableReserveChecked, and at the end both against a map of the adds. The first byte is unused; an add is a byte of key,
// dense enough to repeat, and one whose high nibble widens the key and whose
// low nibble is the delta (fuzzDelta: 0xf is 250).
func FuzzTableReserve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 2, 1, 3, 1, 0xff, 9, 4, 1, 0xff, 0})
	f.Add([]byte{1, 0xff, 200, 7, 2, 0xff, 0, 7, 1})
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{64, 1_024, 8_192} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		table, ladder := NewTable(1, Linear), NewTable(1, Linear)
		oracle := map[uint64]uint32{}
		reserved, slots := 0, table.Cap() // new keys the last Reserve still covers
		for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
			if ops[0] == 0xff {
				reserved = int(ops[1]) * int(ops[1])
				tableReserveChecked(t, table, ladder, reserved)
				slots = table.Cap()
				continue
			}
			key, delta := uint64(ops[0])|uint64(ops[1]&0xf0)<<4, fuzzDelta(ops[1])
			if isNew := table.Add(key, delta); isNew != ladder.Add(key, delta) {
				t.Fatalf("Add(%#x) reported new = %v, the ladder's table the opposite", key, isNew)
			} else if isNew {
				reserved--
			}
			oracle[key] += delta
			if reserved >= 0 && table.Cap() != slots {
				t.Fatalf("table grew from %d slots to %d with %d reserved keys still to come", slots, table.Cap(), reserved)
			}
		}
		tableReserveChecked(t, table, ladder, table.Len())
		if ladder.Len() != len(oracle) {
			t.Fatalf("%d keys, the adds made %d", ladder.Len(), len(oracle))
		}
		for key, count := range oracle {
			if got := ladder.Get(key); got != count {
				t.Fatalf("Get(%#x) = %d, the adds sum to %d", key, got, count)
			}
		}
	})
}
