package kcount

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dedukt/internal/durable"
)

func sampleDB(t testing.TB, n int, seed int64) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tab := NewTable(n, Linear)
	for i := 0; i < n*3; i++ {
		tab.Inc(uint64(rng.Intn(n * 2)))
	}
	return FromTable(tab, 17, 0)
}

func TestDatabaseRoundTrip(t *testing.T) {
	d := sampleDB(t, 5_000, 101)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != d.K || back.Flags != d.Flags || back.Len() != d.Len() {
		t.Fatalf("header mismatch: %+v vs %+v", back, d)
	}
	for i := range d.Entries {
		if back.Entries[i] != d.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestDatabaseEmptyRoundTrip(t *testing.T) {
	d := &Database{K: 17, Flags: FlagCanonical}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 || !back.Canonical() {
		t.Fatalf("empty round trip: %+v", back)
	}
}

func TestDatabaseSortedAndGet(t *testing.T) {
	d := sampleDB(t, 1_000, 102)
	for i := 1; i < len(d.Entries); i++ {
		if d.Entries[i].Key <= d.Entries[i-1].Key {
			t.Fatal("entries not sorted")
		}
	}
	for _, e := range d.Entries {
		if d.Get(e.Key) != e.Count {
			t.Fatalf("Get(%d) = %d, want %d", e.Key, d.Get(e.Key), e.Count)
		}
	}
	if d.Get(^uint64(0)-1) != 0 {
		t.Fatal("absent key should be 0")
	}
	// Table conversion preserves everything.
	tab := d.Table()
	if tab.Len() != d.Len() {
		t.Fatal("table conversion lost entries")
	}
	// Histogram totals agree.
	if d.Histogram().Distinct() != uint64(d.Len()) {
		t.Fatal("histogram distinct mismatch")
	}
}

// TestDatabaseCorruptionDetected damages a KCD every way its reader tells
// apart and pins the durable sentinel, and the message, each one gets. A
// flipped bit may land anywhere, so it only has to be one of the three.
func TestDatabaseCorruptionDetected(t *testing.T) {
	d := sampleDB(t, 500, 103)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	const entry3 = 4 + 16 + 3*kcdEntry

	cases := map[string]struct {
		corrupt func([]byte) []byte
		want    error
		text    string
	}{
		"bad magic":      {func(b []byte) []byte { b[0] = 'X'; return b }, durable.ErrMismatch, "bad magic"},
		"bad version":    {func(b []byte) []byte { b[4] = 99; return b }, durable.ErrMismatch, "version 99"},
		"bad k":          {func(b []byte) []byte { b[6] = 40; return b }, durable.ErrMismatch, "corrupt k=40"},
		"entry count":    {func(b []byte) []byte { b[19] = 0xff; return b }, durable.ErrMismatch, "implausible entry count"},
		"zero count":     {func(b []byte) []byte { copy(b[entry3+8:], []byte{0, 0, 0, 0}); return b }, durable.ErrMismatch, "zero count at entry 3"},
		"descending key": {func(b []byte) []byte { copy(b[entry3:], b[entry3-kcdEntry:entry3]); return b }, durable.ErrMismatch, "not ascending at 3"},
		"truncated":      {func(b []byte) []byte { return b[:len(b)-5] }, durable.ErrTruncated, "reading entry"},
		"bad crc":        {func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, durable.ErrChecksum, "checksum"},
		"flipped bit":    {func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, nil, "kcount"},
	}
	for name, c := range cases {
		data := c.corrupt(append([]byte(nil), good...))
		_, err := ReadDatabase(bytes.NewReader(data))
		_, _, serr := StreamDatabase(bytes.NewReader(data), func(uint64, uint32) error { return nil })
		for _, err := range []error{err, serr} {
			switch {
			case err == nil:
				t.Errorf("%s: corruption not detected", name)
			case c.want != nil && !errors.Is(err, c.want):
				t.Errorf("%s: got %v, want %v", name, err, c.want)
			case !errors.Is(err, durable.ErrTruncated) && !errors.Is(err, durable.ErrChecksum) && !errors.Is(err, durable.ErrMismatch):
				t.Errorf("%s: unstructured error %v", name, err)
			case !strings.Contains(err.Error(), c.text):
				t.Errorf("%s: error %q does not say %q", name, err, c.text)
			}
		}
	}
}

func TestDatabaseRejectsBadK(t *testing.T) {
	d := &Database{K: 0}
	if err := d.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("k=0 should fail")
	}
	d = &Database{K: 40}
	if err := d.Write(&bytes.Buffer{}); err == nil {
		t.Fatal("k=40 should fail")
	}
}

func TestDatabaseRejectsUnsortedWrite(t *testing.T) {
	d := &Database{K: 17, Entries: []KV{{5, 1}, {3, 1}}}
	if err := d.Write(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "ascending") {
		t.Fatalf("unsorted write not rejected: %v", err)
	}
}

func dbFrom(entries ...KV) *Database { return &Database{K: 17, Entries: entries} }

func TestIntersect(t *testing.T) {
	a := dbFrom(KV{1, 5}, KV{3, 2}, KV{7, 9})
	b := dbFrom(KV{3, 4}, KV{5, 1}, KV{7, 3})
	got, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{3, 2}, {7, 3}}
	if len(got.Entries) != len(want) {
		t.Fatalf("entries %v", got.Entries)
	}
	for i := range want {
		if got.Entries[i] != want[i] {
			t.Fatalf("entry %d = %v, want %v", i, got.Entries[i], want[i])
		}
	}
}

func TestUnion(t *testing.T) {
	a := dbFrom(KV{1, 5}, KV{3, 2})
	b := dbFrom(KV{2, 1}, KV{3, 4})
	got, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{1, 5}, {2, 1}, {3, 6}}
	if len(got.Entries) != len(want) {
		t.Fatalf("entries %v", got.Entries)
	}
	for i := range want {
		if got.Entries[i] != want[i] {
			t.Fatalf("entry %d = %v", i, got.Entries[i])
		}
	}
	// Saturation.
	s, _ := Union(dbFrom(KV{1, 0xffffffff}), dbFrom(KV{1, 10}))
	if s.Entries[0].Count != 0xffffffff {
		t.Fatal("union should saturate")
	}
}

func TestSubtract(t *testing.T) {
	a := dbFrom(KV{1, 5}, KV{3, 2}, KV{9, 4})
	b := dbFrom(KV{1, 2}, KV{3, 7})
	got, err := Subtract(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []KV{{1, 3}, {9, 4}} // key 3 went ≤ 0 and dropped
	if len(got.Entries) != len(want) {
		t.Fatalf("entries %v", got.Entries)
	}
	for i := range want {
		if got.Entries[i] != want[i] {
			t.Fatalf("entry %d = %v", i, got.Entries[i])
		}
	}
}

func TestSetOpsCompatibility(t *testing.T) {
	a := &Database{K: 17}
	b := &Database{K: 21}
	if _, err := Intersect(a, b); err == nil {
		t.Error("k mismatch should fail")
	}
	c := &Database{K: 17, Flags: FlagCanonical}
	if _, err := Union(a, c); err == nil {
		t.Error("canonical mismatch should fail")
	}
}

func TestFilterCounts(t *testing.T) {
	a := dbFrom(KV{1, 1}, KV{2, 5}, KV{3, 50})
	got := FilterCounts(a, 2, 10)
	if len(got.Entries) != 1 || got.Entries[0].Key != 2 {
		t.Fatalf("filtered %v", got.Entries)
	}
	if got := FilterCounts(a, 2, 0); len(got.Entries) != 2 {
		t.Fatalf("unbounded max filtered %v", got.Entries)
	}
}

func TestSetOpsAgainstMapOracle(t *testing.T) {
	// Property: merge-based set ops equal the map computation on random
	// databases.
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 30; trial++ {
		mk := func() (*Database, map[uint64]uint32) {
			tab := NewTable(64, Linear)
			m := map[uint64]uint32{}
			for i := 0; i < 200; i++ {
				k := uint64(rng.Intn(150))
				tab.Inc(k)
				m[k]++
			}
			return FromTable(tab, 17, 0), m
		}
		a, ma := mk()
		b, mb := mk()

		inter, _ := Intersect(a, b)
		for _, e := range inter.Entries {
			want := ma[e.Key]
			if mb[e.Key] < want {
				want = mb[e.Key]
			}
			if e.Count != want || want == 0 {
				t.Fatalf("intersect key %d = %d, want %d", e.Key, e.Count, want)
			}
		}
		uni, _ := Union(a, b)
		if len(uni.Entries) != len(unionKeys(ma, mb)) {
			t.Fatal("union key set wrong")
		}
		sub, _ := Subtract(a, b)
		for _, e := range sub.Entries {
			if e.Count != ma[e.Key]-mb[e.Key] {
				t.Fatalf("subtract key %d = %d", e.Key, e.Count)
			}
		}
	}
}

func unionKeys(a, b map[uint64]uint32) map[uint64]bool {
	out := map[uint64]bool{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func TestStreamDatabase(t *testing.T) {
	d := sampleDB(t, 2_000, 105)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var got []KV
	k, flags, err := StreamDatabase(bytes.NewReader(buf.Bytes()), func(key uint64, count uint32) error {
		got = append(got, KV{key, count})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if k != d.K || flags != d.Flags || len(got) != d.Len() {
		t.Fatalf("stream header/len mismatch: k=%d flags=%d n=%d", k, flags, len(got))
	}
	for i := range got {
		if got[i] != d.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
	// Early abort propagates.
	sentinel := bytes.NewReader(buf.Bytes())
	n := 0
	_, _, err = StreamDatabase(sentinel, func(uint64, uint32) error {
		n++
		if n == 10 {
			return errStop
		}
		return nil
	})
	if err != errStop || n != 10 {
		t.Fatalf("abort: err=%v n=%d", err, n)
	}
	// Corruption still detected in streaming mode.
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 1
	if _, _, err := StreamDatabase(bytes.NewReader(data), func(uint64, uint32) error { return nil }); err == nil {
		t.Fatal("streaming reader missed corruption")
	}
}

var errStop = errSentinel("stop")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// TestFromTablesMatchesSortSlice pins the export's radix sort against the
// reflective sort it replaced: the same entries in the same order, for empty
// and one-entry tables, keys that need one digit or all 64 bits (a 32-mer
// with its top bit set), and a spectrum split over several tables.
func TestFromTablesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, tc := range []struct {
		name       string
		n, tables  int
		k, keyBits int
	}{
		{"empty", 0, 1, 17, 34},
		{"one entry", 1, 1, 17, 34},
		{"one digit", 200, 1, 4, 8},
		{"17-mers", 20_000, 1, 17, 34},
		{"17-mers over 12 tables", 20_000, 12, 17, 34},
		{"32-mers", 20_000, 3, 32, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := make([]*Table, tc.tables+1) // the last stays nil
			for i := range ts[:tc.tables] {
				ts[i] = NewTable(1, Linear)
			}
			var want []KV
			seen := map[uint64]bool{}
			for len(want) < tc.n {
				key := rng.Uint64() >> (64 - uint(tc.keyBits))
				if tc.keyBits == 64 && len(want)%2 == 0 {
					key |= 1 << 63
				}
				if seen[key] || key == ^uint64(0) {
					continue
				}
				seen[key] = true
				kv := KV{key, 1 + uint32(rng.Intn(1000))}
				want = append(want, kv)
				ts[int(key%uint64(tc.tables))].Add(kv.Key, kv.Count)
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			got := FromTables(ts, tc.k, FlagCanonical)
			if got.K != tc.k || got.Flags != FlagCanonical || len(got.Entries) != len(want) {
				t.Fatalf("header k=%d flags=%d with %d entries, want k=%d flags=%d with %d", got.K, got.Flags, len(got.Entries), tc.k, FlagCanonical, len(want))
			}
			for i := range want {
				if got.Entries[i] != want[i] {
					t.Fatalf("entry %d is %+v, sort.Slice has %+v", i, got.Entries[i], want[i])
				}
			}
		})
	}
}

// FuzzDatabase: KCD files reach kserve, kload and kmertools from outside
// the program. Whatever bytes one holds, ReadDatabase and StreamDatabase
// agree — on the error, or on the header and every entry — any error is one
// of durable's three sentinels, and what decodes re-encodes to the bytes it
// was read from.
func FuzzDatabase(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleDB(f, 40, 108).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:4+16])
	f.Add([]byte(kcdMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDatabase(bytes.NewReader(data))
		var streamed []KV
		k, flags, serr := StreamDatabase(bytes.NewReader(data), func(key uint64, count uint32) error {
			streamed = append(streamed, KV{key, count})
			return nil
		})
		if fmt.Sprint(err) != fmt.Sprint(serr) {
			t.Fatalf("ReadDatabase: %v; StreamDatabase: %v", err, serr)
		}
		if err != nil {
			if !errors.Is(err, durable.ErrTruncated) && !errors.Is(err, durable.ErrChecksum) && !errors.Is(err, durable.ErrMismatch) {
				t.Fatalf("unstructured error %v", err)
			}
			return
		}
		if k != d.K || flags != d.Flags || len(streamed) != len(d.Entries) {
			t.Fatalf("StreamDatabase read k=%d flags=%d and %d entries, ReadDatabase k=%d flags=%d and %d",
				k, flags, len(streamed), d.K, d.Flags, len(d.Entries))
		}
		for i, e := range d.Entries {
			if streamed[i] != e {
				t.Fatalf("entry %d: streamed %+v, read %+v", i, streamed[i], e)
			}
		}
		var out bytes.Buffer
		if err := d.Write(&out); err != nil {
			t.Fatalf("re-encoding a decoded database: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-encoded %d bytes differ from the %d read", out.Len(), len(data))
		}
	})
}
