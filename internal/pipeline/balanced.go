package pipeline

import (
	"container/heap"
	"io"
	"sort"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/kernels"
	"dedukt/internal/minimizer"
)

// buildBalancedMap computes the frequency-aware minimizer→rank assignment
// (the paper's §VII future work): a profiling pass measures each minimizer
// bin's k-mer load over the whole of src, then bins are LPT-assigned —
// heaviest first, each to the currently lightest rank. Locality is
// preserved (every occurrence of a k-mer still reaches one rank, since the
// k-mer's minimizer is a function of the k-mer alone) while the load
// spread shrinks from the minimizer-granularity skew of hash assignment
// toward the LPT 4/3 bound.
//
// The profiling pass is an offline partitioning computation, as a
// production deployment would derive it from a sample or a previous run of
// the same library; its cost is not charged to the counting pipeline.
func buildBalancedMap(cfg Config, src fastq.Source) ([]uint16, error) {
	bins := 1 << (2 * uint(cfg.M))
	loads := make([]uint64, bins)
	mc := cfg.minimizerConfig()
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		// The builder's emitted supermers partition the read's k-mers by
		// minimizer, so accumulating NKmers per minimizer measures exactly
		// the load each bin will impose on its owner rank.
		_ = minimizer.BuildWindowed(cfg.Enc, r.Seq, mc, func(s minimizer.Supermer) {
			loads[s.Min] += uint64(s.NKmers)
		})
	}

	p := cfg.Layout.Ranks()
	destMap := make([]uint16, bins)
	// Zero-load bins keep the hash assignment so the map is total (they
	// carry no load either way).
	for b := range destMap {
		destMap[b] = uint16(kernels.DestOf(uint64(dna.Kmer(b)), p))
	}

	type bin struct {
		id   int
		load uint64
	}
	var loaded []bin
	for b, l := range loads {
		if l > 0 {
			loaded = append(loaded, bin{b, l})
		}
	}
	sort.Slice(loaded, func(i, j int) bool {
		if loaded[i].load != loaded[j].load {
			return loaded[i].load > loaded[j].load
		}
		return loaded[i].id < loaded[j].id
	})

	h := make(rankHeap, p)
	for r := range h {
		h[r] = rankLoad{rank: r}
	}
	heap.Init(&h)
	for _, b := range loaded {
		lightest := heap.Pop(&h).(rankLoad)
		destMap[b.id] = uint16(lightest.rank)
		lightest.load += b.load
		heap.Push(&h, lightest)
	}
	return destMap, nil
}

// rankLoad pairs a rank with its assigned load for the LPT heap.
type rankLoad struct {
	rank int
	load uint64
}

type rankHeap []rankLoad

func (h rankHeap) Len() int { return len(h) }
func (h rankHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].rank < h[j].rank
}
func (h rankHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *rankHeap) Push(x any)   { *h = append(*h, x.(rankLoad)) }
func (h *rankHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
