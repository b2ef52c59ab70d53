package kcount

import (
	"math/rand"
	"testing"
)

func benchKeys(n, space int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(space))
	}
	return keys
}

func BenchmarkTableInc(b *testing.B) {
	keys := benchKeys(1<<16, 1<<14)
	b.SetBytes(8)
	b.ResetTimer()
	tab := NewTable(1<<14, Linear)
	for i := 0; i < b.N; i++ {
		tab.Inc(keys[i&(1<<16-1)])
	}
}

func BenchmarkAtomicTableInc(b *testing.B) {
	keys := benchKeys(1<<16, 1<<14)
	tab := NewAtomicTable(1<<14, 0.5, Linear)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tab.Inc(keys[i&(1<<16-1)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtomicTableIncParallel(b *testing.B) {
	keys := benchKeys(1<<16, 1<<14)
	tab := NewAtomicTable(1<<14, 0.5, Linear)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := tab.Inc(keys[i&(1<<16-1)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkTableGet(b *testing.B) {
	keys := benchKeys(1<<16, 1<<14)
	tab := NewTable(1<<14, Linear)
	for _, k := range keys {
		tab.Inc(k)
	}
	b.ResetTimer()
	var hit uint32
	for i := 0; i < b.N; i++ {
		hit += tab.Get(keys[i&(1<<16-1)])
	}
	_ = hit
}

func BenchmarkHistogram(b *testing.B) {
	tab := NewTable(1<<14, Linear)
	for _, k := range benchKeys(1<<16, 1<<14) {
		tab.Inc(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := tab.Histogram()
		if h.Distinct() == 0 {
			b.Fatal("empty histogram")
		}
	}
}
