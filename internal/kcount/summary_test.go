package kcount

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// sortedSpectrum is the sort-based reference the fold replaced: collect
// every pair, order by (count desc, key asc), truncate.
func sortedSpectrum(src Source, topK int) (total, distinct uint64, hist map[uint32]uint64, top []KV) {
	hist = map[uint32]uint64{}
	var all []KV
	src.ForEach(func(key uint64, c uint32) {
		total += uint64(c)
		distinct++
		hist[c]++
		all = append(all, KV{key, c})
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if topK > len(all) {
		topK = len(all)
	}
	return total, distinct, hist, append([]KV{}, all[:topK]...)
}

func assertSummary(t *testing.T, s *Summary, whole Source, topK int) {
	t.Helper()
	total, distinct, hist, top := sortedSpectrum(whole, topK)
	if s.Total != total || s.Distinct != distinct {
		t.Fatalf("total/distinct %d/%d, want %d/%d", s.Total, s.Distinct, total, distinct)
	}
	if !reflect.DeepEqual(s.Hist.Counts, hist) {
		t.Fatalf("histogram %v, want %v", s.Hist.Counts, hist)
	}
	if got := s.TopK(); !reflect.DeepEqual(got, top) {
		t.Fatalf("top-%d %v, want %v", topK, got, top)
	}
	if got := s.TopK(); !reflect.DeepEqual(got, top) {
		t.Fatalf("second TopK call %v, want %v: the read disturbed the heap", got, top)
	}
}

// TestSummaryMatchesSortReference: on random tables whose counts come from
// a handful of values — so nearly every top-K boundary falls inside a run
// of equal counts and the key tie-break decides it — the one-pass fold
// equals the sort-based reference, for K below, at and above the table
// size; and folding a key-disjoint partition of the table bin by bin, or
// merging per-bin summaries, equals folding the whole (what spill pass 2
// and the cross-rank aggregate rely on).
func TestSummaryMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(400)
		bins := 1 + rng.Intn(9)
		whole := NewTable(1, Linear)
		parts := make([]*Table, bins)
		for b := range parts {
			parts[b] = NewTable(1, Linear)
		}
		for i := 0; i < n; i++ {
			// Low-entropy keys collide in the slots too.
			key, count := uint64(rng.Intn(600))*64, uint32(1+rng.Intn(4))
			whole.Add(key, count)
			parts[key/64%uint64(bins)].Add(key, count)
		}
		for _, topK := range []int{0, 1, 7, 64, whole.Len(), whole.Len() + 5} {
			assertSummary(t, Summarize(whole, topK), whole, topK)
			_, _, _, top := sortedSpectrum(whole, topK)
			if got := whole.TopK(topK); !reflect.DeepEqual(got, top) {
				t.Fatalf("Table.TopK(%d) %v, want %v", topK, got, top)
			}

			folded, merged := NewSummary(topK), NewSummary(topK)
			for _, p := range parts {
				p.ForEach(folded.Add)
				merged.Merge(Summarize(p, topK))
			}
			assertSummary(t, folded, whole, topK)
			assertSummary(t, merged, whole, topK)
		}
	}
}

// TestSummaryEmpty: a summary that saw nothing, or only empty sources,
// reports the zero spectrum with a usable histogram.
func TestSummaryEmpty(t *testing.T) {
	s := NewSummary(64)
	NewTable(1, Linear).ForEach(s.Add)
	s.Merge(NewSummary(64))
	if s.Total != 0 || s.Distinct != 0 || len(s.Hist.Counts) != 0 || len(s.TopK()) != 0 {
		t.Fatalf("empty summary reports %+v", s)
	}
	s.Hist.Merge(Histogram{Counts: map[uint32]uint64{1: 1}}) // must not be a nil map
}

// TestSummaryOverAtomicTableAndDatabase: the fold reads the GPU engine's
// table and a loaded database directly, with no serial copy in between.
func TestSummaryOverAtomicTableAndDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	at := NewAtomicTable(300, 0.5, Linear)
	for i := 0; i < 1000; i++ {
		if _, _, err := at.Inc(uint64(rng.Intn(300))); err != nil {
			t.Fatal(err)
		}
	}
	assertSummary(t, Summarize(at, 10), at, 10)
	db := FromTable(at.Snapshot(), 17, 0)
	assertSummary(t, Summarize(db, 10), at, 10)
}
