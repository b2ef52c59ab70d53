package kserve

import (
	"context"
	"math/rand"
	"testing"

	"dedukt/internal/kcount"
)

// benchService builds a 100k-entry service at default options.
func benchService(b *testing.B) (*Service, *kcount.Database) {
	b.Helper()
	db := sampleDB(b, 17, 100_000, 42, 0)
	svc, err := New(db, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	return svc, db
}

// BenchmarkLookupKey measures concurrent point lookups: the serving
// analogue of the pipeline's per-k-mer cost.
func BenchmarkLookupKey(b *testing.B) {
	svc, db := benchService(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(1))
		for pb.Next() {
			key := db.Entries[rng.Intn(len(db.Entries))].Key
			if _, err := svc.LookupKey(ctx, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLookupKeys64 measures the 64-key bulk call the /batch handler
// makes: one admission, 64 bucket searches.
func BenchmarkLookupKeys64(b *testing.B) {
	svc, db := benchService(b)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = db.Entries[rng.Intn(len(db.Entries))].Key
	}
	out := make([]uint32, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.LookupKeysInto(ctx, keys, out); err != nil {
			b.Fatal(err)
		}
	}
}
