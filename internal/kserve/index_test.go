package kserve

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
)

// indexCounts are the counts worth storing: below, at and past the lane's
// escape value, and the largest a count can be.
var indexCounts = []uint32{1, 2, 254, 255, 256, 1000, math.MaxUint32}

// indexDB builds a database of min(n, 4^k) distinct k-mers: keys 0 and
// 4^k−1 when n allows, the rest drawn at random, with counts cycling
// through indexCounts.
func indexDB(rng *rand.Rand, k, n int) *kcount.Database {
	mask := uint64(dna.KmerMask(k))
	if k < 32 && uint64(n) > mask {
		n = int(mask) + 1
	}
	counts := make(map[uint64]uint32, n)
	add := func(key uint64) {
		if _, ok := counts[key]; !ok && len(counts) < n {
			counts[key] = indexCounts[len(counts)%len(indexCounts)]
		}
	}
	add(0)
	add(mask)
	for len(counts) < n {
		add(rng.Uint64() & mask)
	}
	return sortedDB(k, counts)
}

// sortedDB is the k-mer database holding counts, in ascending key order.
func sortedDB(k int, counts map[uint64]uint32) *kcount.Database {
	db := &kcount.Database{K: k}
	for key, c := range counts {
		db.Entries = append(db.Entries, kcount.KV{Key: key, Count: c})
	}
	slices.SortFunc(db.Entries, func(a, b kcount.KV) int { return cmp.Compare(a.Key, b.Key) })
	return db
}

// checkIndex builds the index over db and checks it against Database.Get
// on every entry, each entry's neighbours, and probes. It returns how many
// absent in-range keys it asked about in occupied buckets and in empty ones,
// and the suffix width the index chose.
func checkIndex(t testing.TB, db *kcount.Database, probes []uint64) (inside, outside int, width uint) {
	t.Helper()
	x, err := newIndex(db.K, db.Entries)
	if err != nil {
		t.Fatalf("k=%d n=%d: %v", db.K, db.Len(), err)
	}
	check := func(key uint64) {
		want := db.Get(key)
		if got := x.get(key); got != want {
			t.Fatalf("k=%d n=%d: get(%#x) = %d, want %d", db.K, db.Len(), key, got, want)
		}
		if want == 0 && key>>x.keyBits == 0 {
			if b := key >> x.sufBits; x.offs[b] < x.offs[b+1] {
				inside++
			} else {
				outside++
			}
		}
	}
	for _, e := range db.Entries {
		check(e.Key)
		check(e.Key - 1)
		check(e.Key + 1)
	}
	for _, key := range probes {
		check(key)
	}
	_, width = prefixBits(db.K, db.Len())
	return inside, outside, width
}

// TestPrefixBits pins the index shape: the smallest prefix whose suffix
// fits 16 bits with no more buckets than keys, else 32 bits, else 64.
func TestPrefixBits(t *testing.T) {
	for _, c := range []struct {
		k, n     int
		p, width uint
	}{
		{17, 1 << 20, 18, 16}, // the benchmark's shard
		{17, 1_000_000, 18, 16},
		{17, 1 << 17, 2, 32}, // too few keys for 2^18 buckets
		{8, 0, 0, 16},
		{8, 1 << 16, 0, 16},
		{1, 4, 0, 16},
		{17, 0, 0, 64},
		{24, 1 << 16, 16, 32},
		{31, 1 << 20, 0, 64},
		{32, 1 << 20, 0, 64},
	} {
		if p, width := prefixBits(c.k, c.n); p != c.p || width != c.width {
			t.Errorf("prefixBits(%d, %d) = %d, %d; want %d, %d", c.k, c.n, p, width, c.p, c.width)
		}
	}
}

// TestIndexMatchesDatabase is the index's differential test: for every k
// and several sizes, from empty to a few thousand keys, every lookup —
// present, escaped, absent inside an occupied bucket, absent in an empty
// one, past 4^k — answers what Database.Get answers.
func TestIndexMatchesDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var inside, outside int
	widths := map[uint]bool{}
	for k := 1; k <= dna.MaxK; k++ {
		mask := uint64(dna.KmerMask(k))
		probes := []uint64{0, mask, math.MaxUint64}
		if k < 32 {
			probes = append(probes, mask+1)
		}
		for i := 0; i < 200; i++ {
			probes = append(probes, rng.Uint64()&mask, rng.Uint64())
		}
		if k <= 6 {
			for key := uint64(0); key <= mask; key++ {
				probes = append(probes, key)
			}
		}
		for _, n := range []int{0, 1, 2, 300, 5_000} {
			in, out, width := checkIndex(t, indexDB(rng, k, n), probes)
			inside, outside = inside+in, outside+out
			widths[width] = true
		}
	}
	if inside == 0 || outside == 0 {
		t.Fatalf("absent probes: %d in occupied buckets, %d in empty ones; want both", inside, outside)
	}
	if len(widths) != 3 {
		t.Fatalf("suffix widths exercised: %v, want 16, 32 and 64", widths)
	}
}

// FuzzServeIndex checks the index against Database.Get on arbitrary
// spectra: the first byte picks k, each following 12-byte record is a key
// (masked to k) and its count, and any leftover bytes are one unmasked
// probe key.
func FuzzServeIndex(f *testing.F) {
	record := func(key uint64, count uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, key), count)
	}
	f.Add([]byte{17})
	f.Add(append([]byte{17}, record(5, 1)...))
	f.Add(slices.Concat([]byte{0}, record(0, 255), record(3, 254), []byte{9}))
	f.Add(slices.Concat([]byte{31}, record(0, 256), record(math.MaxUint64, math.MaxUint32), record(1<<40, 255)))
	f.Add(slices.Concat([]byte{8}, record(0x1234, 7), record(0x1235, 300), record(0xffff, 1), record(0x1234, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0])%dna.MaxK + 1
		mask := uint64(dna.KmerMask(k))
		counts := map[uint64]uint32{}
		data = data[1:]
		for ; len(data) >= 12; data = data[12:] {
			counts[binary.LittleEndian.Uint64(data)&mask] = binary.LittleEndian.Uint32(data[8:])
		}
		var probes []uint64
		if len(data) > 0 {
			probes = append(probes, binary.LittleEndian.Uint64(append(data, make([]byte, 8)...)))
		}
		checkIndex(t, sortedDB(k, counts), probes)
	})
}

// TestNewRefusesUnsortedEntries: the index needs strictly ascending k-mer
// keys, so New refuses anything else rather than serve wrong answers.
func TestNewRefusesUnsortedEntries(t *testing.T) {
	for name, db := range map[string]*kcount.Database{
		"descending": {K: 17, Entries: []kcount.KV{{Key: 5, Count: 1}, {Key: 3, Count: 1}}},
		"duplicate":  {K: 17, Entries: []kcount.KV{{Key: 5, Count: 1}, {Key: 5, Count: 2}}},
		"past 4^k":   {K: 2, Entries: []kcount.KV{{Key: 3, Count: 1}, {Key: 16, Count: 1}}},
		"k=0":        {K: 0},
		"k=33":       {K: 33},
	} {
		if _, err := New(db, Options{}); err == nil {
			t.Errorf("%s: New accepted %+v", name, db)
		}
	}
	if _, err := New(&kcount.Database{K: 2, Entries: []kcount.KV{{Key: 3, Count: 1}, {Key: 15, Count: 1}}}, Options{}); err != nil {
		t.Fatalf("ascending 2-mers refused: %v", err)
	}
}

// TestNewKeepsNoDatabase: once New returns, nothing the service holds
// reaches db.Entries, so a caller that drops the database frees it.
func TestNewKeepsNoDatabase(t *testing.T) {
	entries := make([]kcount.KV, 10_000)
	for i := range entries {
		entries[i] = kcount.KV{Key: uint64(i) * 7, Count: uint32(i%300 + 1)}
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(&entries[0], func(*kcount.KV) { close(collected) })
	svc := newService(t, &kcount.Database{K: 17, Entries: entries}, Options{})
	entries = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(svc)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("db.Entries still reachable from the service after New")
}

// TestIndexFootprint pins what a replica holds for its spectrum: at most
// 5 B per served k-mer at k=17 with a million keys (kcount.KV takes 16),
// both as the index reports it and as the heap sees it once the database
// is dropped.
func TestIndexFootprint(t *testing.T) {
	const k, n, maxPerKmer = 17, 1 << 20, 5
	rng := rand.New(rand.NewSource(17))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := &kcount.Database{K: k, Entries: make([]kcount.KV, n)}
	for i := range db.Entries {
		// Spread over the whole key space, a thousandth past the lane.
		count := uint32(rng.Intn(40) + 1)
		if i%1000 == 0 {
			count = 300 + uint32(i)
		}
		db.Entries[i] = kcount.KV{Key: uint64(i)<<14 | uint64(rng.Intn(1<<14)), Count: count}
	}
	svc := newService(t, db, Options{})
	db = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("index %.2f B, heap %.2f B per k-mer", float64(svc.idx.bytes())/n, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/n)
	if per := float64(svc.idx.bytes()) / n; per > maxPerKmer {
		t.Fatalf("index holds %.2f B per k-mer, want ≤ %d", per, maxPerKmer)
	}
	if per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n; per > maxPerKmer {
		t.Fatalf("service holds %.2f B of heap per k-mer, want ≤ %d", per, maxPerKmer)
	}
	runtime.KeepAlive(svc)
}
