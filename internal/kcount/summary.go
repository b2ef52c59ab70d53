package kcount

// Source is anything that can enumerate counted (key, count) pairs: the
// serial and atomic tables, a loaded Database.
type Source interface {
	ForEach(fn func(key uint64, count uint32))
}

// Summary is the one-pass spectrum report: k-mer total, distinct keys,
// frequency histogram and a bounded top-K, folded entry by entry so
// nothing that is only summarised gets materialised — no table copy, no
// full sort. Folding sources with disjoint key sets one after another (a
// rank's spill bins, the ranks of a world) equals folding their union:
// totals and histogram classes add, and the top-K order — count
// descending, key ascending — is total over distinct keys, so the K best
// of the union are the K best however the union is cut.
type Summary struct {
	Total    uint64
	Distinct uint64
	Hist     Histogram
	top      topHeap
}

// NewSummary returns an empty summary keeping the topK heaviest keys.
func NewSummary(topK int) *Summary {
	return &Summary{Hist: Histogram{Counts: make(map[uint32]uint64)}, top: topHeap{k: topK}}
}

// Summarize folds one source into a new summary.
func Summarize(src Source, topK int) *Summary {
	s := NewSummary(topK)
	src.ForEach(s.Add)
	return s
}

// Add folds one distinct key in.
func (s *Summary) Add(key uint64, count uint32) {
	s.Total += uint64(count)
	s.Distinct++
	s.Hist.Counts[count]++
	s.top.offer(KV{key, count})
}

// Merge folds in a summary of keys disjoint from s's own.
func (s *Summary) Merge(o *Summary) {
	s.Total += o.Total
	s.Distinct += o.Distinct
	s.Hist.Merge(o.Hist)
	for _, kv := range o.top.h {
		s.top.offer(kv)
	}
}

// TopK returns the heaviest keys folded so far, at most the configured
// number, counts descending and keys ascending among ties.
func (s *Summary) TopK() []KV { return s.top.sorted() }

// topHeap keeps the k best pairs offered so far in a binary heap with the
// worst kept pair at the root, so the common offer — a pair no better than
// the worst kept — is one comparison.
type topHeap struct {
	k int
	h []KV
}

// before is the report order: count descending, key ascending.
func (a KV) before(b KV) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

func (t *topHeap) offer(kv KV) {
	if len(t.h) < t.k {
		t.h = append(t.h, kv)
		for i := len(t.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !t.h[parent].before(t.h[i]) {
				break
			}
			t.h[parent], t.h[i] = t.h[i], t.h[parent]
			i = parent
		}
		return
	}
	if t.k > 0 && kv.before(t.h[0]) {
		t.h[0] = kv
		siftDown(t.h, 0)
	}
}

// siftDown restores the worst-at-root heap below i.
func siftDown(h []KV, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if h[worst].before(h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the kept pairs in report order, leaving the heap intact:
// a heapsort of a copy, which moves the worst remaining pair to the end.
func (t *topHeap) sorted() []KV {
	out := append(make([]KV, 0, len(t.h)), t.h...)
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		siftDown(out[:n], 0)
	}
	return out
}
