package kcount

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"dedukt/internal/dna"
)

func TestTableBasic(t *testing.T) {
	tab := NewTable(4, Linear)
	if isNew := tab.Inc(42); !isNew {
		t.Fatal("first insert should be new")
	}
	if isNew := tab.Inc(42); isNew {
		t.Fatal("second insert should not be new")
	}
	tab.Add(7, 5)
	if got := tab.Get(42); got != 2 {
		t.Fatalf("Get(42) = %d, want 2", got)
	}
	if got := tab.Get(7); got != 5 {
		t.Fatalf("Get(7) = %d, want 5", got)
	}
	if got := tab.Get(999); got != 0 {
		t.Fatalf("Get(999) = %d, want 0", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if total := tab.Histogram().Total(); total != 7 {
		t.Fatalf("Histogram().Total() = %d, want 7", total)
	}
}

func TestTableZeroKey(t *testing.T) {
	// Key 0 (the all-A k-mer under lexicographic encoding) must work.
	tab := NewTable(4, Linear)
	tab.Inc(0)
	tab.Inc(0)
	if got := tab.Get(0); got != 2 {
		t.Fatalf("Get(0) = %d, want 2", got)
	}
}

func TestTableSentinelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for sentinel key")
		}
	}()
	NewTable(4, Linear).Inc(^uint64(0))
}

func TestTableGrowth(t *testing.T) {
	tab := NewTable(2, Linear)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		tab.Add(i, uint32(i%7)+1)
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if got := tab.Get(i); got != uint32(i%7)+1 {
			t.Fatalf("Get(%d) = %d after growth", i, got)
		}
	}
	if load := float64(tab.Len()) / float64(tab.Cap()); load > 0.7 {
		t.Fatalf("load factor %.2f > 0.7 after growth", load)
	}
}

func TestTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := NewTable(16, Linear)
	oracle := map[uint64]uint32{}
	for i := 0; i < 50_000; i++ {
		key := uint64(rng.Intn(5_000)) // heavy duplication
		tab.Inc(key)
		oracle[key]++
	}
	if tab.Len() != len(oracle) {
		t.Fatalf("Len %d != oracle %d", tab.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got := tab.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}
	seen := 0
	tab.ForEach(func(k uint64, c uint32) {
		if oracle[k] != c {
			t.Fatalf("ForEach key %d count %d, oracle %d", k, c, oracle[k])
		}
		seen++
	})
	if seen != len(oracle) {
		t.Fatalf("ForEach visited %d, want %d", seen, len(oracle))
	}
}

func TestTableMerge(t *testing.T) {
	a, b := NewTable(4, Linear), NewTable(4, Linear)
	a.Add(1, 2)
	a.Add(2, 3)
	b.Add(2, 4)
	b.Add(3, 1)
	a.Merge(b)
	want := map[uint64]uint32{1: 2, 2: 7, 3: 1}
	for k, w := range want {
		if got := a.Get(k); got != w {
			t.Errorf("merged Get(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestHistogram(t *testing.T) {
	tab := NewTable(8, Linear)
	// 3 singletons, 2 doubletons, 1 kmer with count 5.
	for _, k := range []uint64{10, 11, 12} {
		tab.Inc(k)
	}
	for _, k := range []uint64{20, 21} {
		tab.Add(k, 2)
	}
	tab.Add(30, 5)
	h := tab.Histogram()
	if h.Counts[1] != 3 || h.Counts[2] != 2 || h.Counts[5] != 1 {
		t.Fatalf("histogram = %v", h.Counts)
	}
	if h.Distinct() != 6 {
		t.Fatalf("Distinct = %d", h.Distinct())
	}
	if h.Total() != 3+4+5 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Singletons() != 3 {
		t.Fatalf("Singletons = %d", h.Singletons())
	}
	fs := h.Frequencies()
	if len(fs) != 3 || fs[0] != 1 || fs[2] != 5 {
		t.Fatalf("Frequencies = %v", fs)
	}
	h2 := Histogram{Counts: map[uint32]uint64{1: 1}}
	h.Merge(h2)
	if h.Counts[1] != 4 {
		t.Fatal("merge failed")
	}
}

func TestTopK(t *testing.T) {
	tab := NewTable(8, Linear)
	tab.Add(1, 10)
	tab.Add(2, 30)
	tab.Add(3, 20)
	tab.Add(4, 30)
	top := tab.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK len %d", len(top))
	}
	if top[0].Key != 2 || top[1].Key != 4 || top[2].Key != 3 {
		t.Fatalf("TopK order = %v", top)
	}
	// The edges: k past Len() returns everything, in order; k = 0 and the
	// empty table return nothing; a negative k returns nil (it used to
	// panic slicing the sorted copy).
	if got, want := tab.TopK(100), []KV{{2, 30}, {4, 30}, {3, 20}, {1, 10}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK(100) = %v, want %v", got, want)
	}
	if got := tab.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0) = %v", got)
	}
	if got := NewTable(1, Linear).TopK(3); len(got) != 0 {
		t.Fatalf("empty table TopK(3) = %v", got)
	}
	if got := tab.TopK(-1); got != nil {
		t.Fatalf("TopK(-1) = %v, want nil", got)
	}
}

func TestSerialCountOracle(t *testing.T) {
	reads := [][]byte{[]byte("ACGTACGT"), []byte("ACGT"), []byte("NNACGT")}
	m := SerialCount(&dna.Lexicographic, reads, 4)
	acgt := dna.MustKmer(&dna.Lexicographic, "ACGT")
	if m[acgt] != 4 {
		t.Fatalf("ACGT count = %d, want 4", m[acgt])
	}
	tab := NewTable(8, Linear)
	for k, c := range m {
		tab.Add(uint64(k), c)
	}
	if diff := tab.EqualToOracle(m); diff != "" {
		t.Fatal(diff)
	}
	tab.Inc(uint64(acgt))
	if diff := tab.EqualToOracle(m); diff == "" {
		t.Fatal("EqualToOracle should detect count drift")
	}
}

func TestAtomicTableSerialSemantics(t *testing.T) {
	tab := NewAtomicTable(100, 0.5, Linear)
	oracle := map[uint64]uint32{}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 5_000; i++ {
		key := uint64(rng.Intn(90))
		if _, _, err := tab.Inc(key); err != nil {
			t.Fatal(err)
		}
		oracle[key]++
	}
	if tab.Len() != len(oracle) {
		t.Fatalf("Len %d != %d", tab.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got := tab.Get(k); got != want {
			t.Fatalf("Get(%d) = %d, want %d", k, got, want)
		}
	}
	if tab.Probes() == 0 {
		t.Fatal("probe accounting missing")
	}
}

func TestAtomicTableConcurrent(t *testing.T) {
	// 8 goroutines hammer a small key space; total counts must conserve.
	tab := NewAtomicTable(512, 0.5, Linear)
	const workers, perWorker, keySpace = 8, 20_000, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				if _, _, err := tab.Inc(uint64(rng.Intn(keySpace))); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	var total uint64
	tab.ForEach(func(_ uint64, c uint32) { total += uint64(c) })
	if total != workers*perWorker {
		t.Fatalf("count conservation violated: %d != %d", total, workers*perWorker)
	}
	if tab.Len() > keySpace {
		t.Fatalf("Len %d > key space %d", tab.Len(), keySpace)
	}
}

func TestAtomicTableFull(t *testing.T) {
	tab := NewAtomicTable(4, 0.5, Linear)
	capacity := tab.Cap()
	var err error
	for i := 0; err == nil && i < capacity+1; i++ {
		_, _, err = tab.Inc(uint64(i * 1_000_003))
	}
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("expected ErrTableFull, got %v", err)
	}
}

func TestAtomicSnapshot(t *testing.T) {
	tab := NewAtomicTable(16, 0.5, Linear)
	tab.Add(5, 3)
	tab.Add(9, 1)
	snap := tab.Snapshot()
	if snap.Get(5) != 3 || snap.Get(9) != 1 || snap.Len() != 2 {
		t.Fatal("snapshot mismatch")
	}
}

// TestAtomicReserve: a reservation past the load ceiling grows the table,
// which keeps every count and records the grow; one the table already has
// room for leaves it as it is.
func TestAtomicReserve(t *testing.T) {
	table := NewAtomicTable(4, 0.5, Linear)
	for i := uint64(0); i < 4; i++ {
		if _, _, err := table.Inc(i); err != nil {
			t.Fatal(err)
		}
	}
	table.Reserve(1000)
	want := NewAtomicTable(1004, 0.5, Linear).Cap()
	if table.Cap() != want || table.Grows() != 1 {
		t.Fatalf("reserved %d slots after %d grows, want %d after 1", table.Cap(), table.Grows(), want)
	}
	for i := uint64(0); i < 4; i++ {
		if table.Get(i) != 1 {
			t.Fatalf("key %d lost during rehash", i)
		}
	}
	table.Reserve(1)
	if table.Cap() != want || table.Grows() != 1 {
		t.Fatal("unneeded growth")
	}
}

func TestTablePropertyInsertFind(t *testing.T) {
	f := func(keys []uint64, deltas []uint8) bool {
		tab := NewTable(8, Linear)
		oracle := map[uint64]uint32{}
		for i, k := range keys {
			if k > MaxKey {
				k = MaxKey
			}
			d := uint32(1)
			if i < len(deltas) {
				d = uint32(deltas[i]) + 1
			}
			tab.Add(k, d)
			oracle[k] += d
		}
		for k, want := range oracle {
			if tab.Get(k) != want {
				return false
			}
		}
		return tab.Len() == len(oracle)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
