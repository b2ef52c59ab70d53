package kcount

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// escapeDeltas are the deltas each key of the escape tests takes, per
// worker: a run of single increments that walks its lane up to the escape
// and the carries past it, deltas on either side of a lane's reach (127 and
// 128) and of a byte's (254, 255, 300), and one that wraps the count past
// 2³² (a uint32 counter wraps exactly so).
func escapeDeltas() []uint32 {
	deltas := []uint32{127, 128, 254, 255, 300, 1<<32 - 1_000}
	for i := 0; i < 300; i++ {
		deltas = append(deltas, 1)
	}
	return deltas
}

// laneMates returns four keys whose home slots in a table of capacity slots
// are the four lanes of one lane word: added first to an empty table, they
// share that word.
func laneMates(capacity int) [4]uint64 {
	table := &AtomicTable{cap: uint64(capacity)}
	byWord := map[uint64]*[4]uint64{}
	for key := uint64(1); ; key++ {
		home := table.home(key)
		mates := byWord[home/4]
		if mates == nil {
			mates = &[4]uint64{}
			byWord[home/4] = mates
		}
		if mates[home%4] == 0 {
			mates[home%4] = key
		}
		if mates[0] != 0 && mates[1] != 0 && mates[2] != 0 && mates[3] != 0 {
			return *mates
		}
	}
}

// atomicCountsEqual checks every count the table reads back — Get, ForEach,
// Snapshot — against want, and the escaped keys against the counts of 128 or
// more.
func atomicCountsEqual(t *testing.T, table *AtomicTable, want map[uint64]uint32, escaped int) {
	t.Helper()
	if table.Len() != len(want) || table.Escaped() != escaped {
		t.Fatalf("%d keys, %d escaped; want %d, %d", table.Len(), table.Escaped(), len(want), escaped)
	}
	for key, count := range want {
		if got := table.Get(key); got != count {
			t.Fatalf("Get(%d) = %d, want %d", key, got, count)
		}
	}
	seen := map[uint64]bool{}
	table.ForEach(func(key uint64, count uint32) {
		if seen[key] || want[key] != count {
			t.Fatalf("ForEach gave %d = %d (seen before: %v), want %d", key, count, seen[key], want[key])
		}
		seen[key] = true
	})
	if len(seen) != len(want) {
		t.Fatalf("ForEach gave %d keys, want %d", len(seen), len(want))
	}
	snap := table.Snapshot()
	if snap.Len() != len(want) {
		t.Fatalf("Snapshot holds %d keys, want %d", snap.Len(), len(want))
	}
	big := 0
	for key, count := range want {
		if got := snap.Get(key); got != count {
			t.Fatalf("Snapshot Get(%d) = %d, want %d", key, got, count)
		}
		if count >= escapedLane {
			big++
		}
	}
	if snap.Escaped() != big {
		t.Fatalf("Snapshot escaped %d keys, want the %d counts of 128 or more", snap.Escaped(), big)
	}
}

// TestAtomicCountEscape: GOMAXPROCS goroutines (two at least) push four keys
// that share one lane word past their lanes at once, each with escapeDeltas
// in its own order, and add a key of their own and a shared one with delta 0.
// Every count reads back exact — the carries under the side map's mutex lose
// nothing to the compare-and-swaps on the shared word — before a Reserve that
// rehashes the keys, after it, and after a second such round into the grown
// table.
func TestAtomicCountEscape(t *testing.T) {
	workers := max(2, runtime.GOMAXPROCS(0))
	table := NewAtomicTable(40, 0.5, Linear)
	mates := laneMates(table.Cap())
	const zero = 0 // a key only ever added with delta 0
	want := map[uint64]uint32{}
	round := func(r int) {
		var wg sync.WaitGroup
		var claims sync.Map
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				type op struct {
					key   uint64
					delta uint32
				}
				var ops []op
				for _, key := range mates {
					for _, d := range escapeDeltas() {
						ops = append(ops, op{key, d})
					}
				}
				ops = append(ops, op{zero, 0}, op{uint64(1_000_000*(r+1) + w), 0})
				rng := rand.New(rand.NewSource(int64(r*workers + w)))
				rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
				for _, o := range ops {
					isNew, _, err := table.Add(o.key, o.delta)
					if err != nil {
						t.Error(err)
						return
					}
					if isNew {
						if _, dup := claims.LoadOrStore(o.key, w); dup {
							t.Errorf("key %d reported new twice", o.key)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, key := range mates {
			for _, d := range escapeDeltas() {
				want[key] += uint32(workers) * d
			}
		}
		want[zero] = 0
		for w := 0; w < workers; w++ {
			want[uint64(1_000_000*(r+1)+w)] = 0
		}
	}

	round(0)
	for i, key := range mates {
		seg, in := table.slot(table.home(key))
		if seg.keys[in].Load() != key+1 || table.home(key)/4 != table.home(mates[0])/4 {
			t.Fatalf("mate %d (key %d) is not in lane %d of its word", i, key, i)
		}
	}
	atomicCountsEqual(t, table, want, len(mates))
	grows := table.Grows()
	table.Reserve(table.Room() + 1_000)
	if table.Grows() != grows+1 {
		t.Fatalf("Reserve past the room made %d grows, want 1", table.Grows()-grows)
	}
	atomicCountsEqual(t, table, want, len(mates))
	round(1)
	atomicCountsEqual(t, table, want, len(mates))
}

// TestTableCountEscape is TestAtomicCountEscape's serial twin, against a
// map[uint64]uint32 reference: the same keys and deltas, each key's in its
// own order, before and after a Reserve that rehashes them, with counts that
// wrap past 2³² exactly as the reference's do — down to below the lane's
// reach, where the key stays escaped.
func TestTableCountEscape(t *testing.T) {
	table := NewTable(4, Linear)
	want := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(29))
	add := func(key uint64, delta uint32) {
		_, held := want[key]
		if isNew := table.Add(key, delta); isNew == held {
			t.Fatalf("Add(%d, %d) reported new = %v with the key held: %v", key, delta, isNew, held)
		}
		want[key] += delta
	}
	check := func() {
		t.Helper()
		escaped := 0
		for key, count := range want {
			if got := table.Get(key); got != count {
				t.Fatalf("Get(%d) = %d, want %d", key, got, count)
			}
		}
		seen := 0
		table.ForEach(func(key uint64, count uint32) {
			if seen++; want[key] != count {
				t.Fatalf("ForEach gave %d = %d, want %d", key, count, want[key])
			}
		})
		if seen != len(want) || table.Len() != len(want) {
			t.Fatalf("ForEach gave %d keys, Len %d, want %d", seen, table.Len(), len(want))
		}
		for _, lane := range table.lanes {
			if lane&escapedLane != 0 {
				escaped++
			}
		}
		if table.Escaped() != escaped {
			t.Fatalf("Escaped() = %d, %d lanes are escaped", table.Escaped(), escaped)
		}
	}
	round := func() {
		for key := uint64(0); key < 4; key++ {
			deltas := escapeDeltas()
			rng.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
			for _, d := range deltas {
				add(key, d)
			}
		}
		add(uint64(100+len(want)), 0)
	}

	round()
	check()
	if table.Escaped() != 4 {
		t.Fatalf("%d keys escaped, want the 4 pushed past their lanes", table.Escaped())
	}
	// Wrap key 0 to 3 past 2³²: an escaped key whose count is back under 128.
	add(0, 3-want[0])
	if table.Get(0) != 3 || table.Escaped() != 4 {
		t.Fatalf("wrapped to %d with %d keys escaped, want 3 and 4", table.Get(0), table.Escaped())
	}
	grows := table.Grows()
	table.Reserve(table.Reserve(0) + 1_000)
	if table.Grows() != grows+1 {
		t.Fatalf("Reserve past the room made %d grows, want 1", table.Grows()-grows)
	}
	check()
	round()
	check()
}
