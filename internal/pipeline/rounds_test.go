package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
)

func mkReads(lens ...int) []fastq.Record {
	var out []fastq.Record
	for _, l := range lens {
		out = append(out, fastq.Record{Seq: make([]byte, l)})
	}
	return out
}

// splitSource is a chunkSource that deals every seat its own reads, in
// chunks of at most maxBases (at least one read): the per-rank input split
// the shared producer never makes.
type splitSource struct {
	parts    [][]fastq.Record
	maxBases int
	next     []int // each seat's next read
}

func newSplitSource(maxBases int, parts ...[]fastq.Record) *splitSource {
	return &splitSource{parts: parts, maxBases: maxBases, next: make([]int, len(parts))}
}

func (s *splitSource) deal(slot, _ int) ([]byte, bool, error) {
	part, i := s.parts[slot], s.next[slot]
	var buf dna.SeqBuffer
	for bases := 0; i < len(part) && (bases == 0 || bases+len(part[i].Seq) <= s.maxBases); i++ {
		bases += len(part[i].Seq)
		buf.AppendRead(part[i].Seq)
	}
	s.next[slot] = i
	return buf.Data(), i < len(part), nil
}

// TestUnevenTailDrain pins the last-chunk boundary fix: ranks with wildly
// uneven inputs — including a rank with no reads at all — must keep
// participating in the collectives until the longest rank drains, a
// final partial chunk below the cap must still be counted, and the
// result must match the oracle.
func TestUnevenTailDrain(t *testing.T) {
	reads := testReads(t, 9_000, 4)
	cfg := Default(smallGPULayout(1), KmerMode)
	const roundBases = 2_500
	p := cfg.Layout.Ranks()
	// Skewed hand-built split: rank 0 gets nearly everything, rank 1 a
	// single read, the rest nothing.
	parts := make([][]fastq.Record, p)
	parts[0], parts[1] = reads[:len(reads)-1], reads[len(reads)-1:]
	rs, seats, err := newRunState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.world(nil, newSplitSource(roundBases, parts...), seats, nil, nil); err != nil {
		t.Fatal(err)
	}
	res := rs.result()
	// Every rank ran as many rounds as the heaviest one's chunks.
	heaviest, want := newSplitSource(roundBases, parts[0]), 0
	for more := true; more; want++ {
		_, more, _ = heaviest.deal(0, want)
	}
	if res.Rounds != want {
		t.Fatalf("rounds=%d, want %d", res.Rounds, want)
	}
	if res.Rounds < 3 {
		t.Fatalf("want a multi-round run, got %d", res.Rounds)
	}
	checkAgainstOracle(t, cfg, reads, res)
}

func TestMultiRoundMatchesSingleRound(t *testing.T) {
	// §III-A: multi-round execution must not change results; only the
	// per-round buffer sizes differ. A rank parses round r+1 while a slow
	// peer may still be counting round r: a send row that aliased the
	// round's base buffer would be overwritten under that peer (and
	// reported under -race).
	reads := testReads(t, 15_000, 6)
	cpu := cluster.SummitCPU(1)
	cpu.RanksPerNode, cpu.Net.RanksPerNode = 6, 6
	for _, tc := range []struct {
		engine string
		layout cluster.Layout
		mode   Mode
	}{
		{"gpu", smallGPULayout(1), KmerMode},
		{"gpu", smallGPULayout(1), SupermerMode},
		{"cpu", cpu, KmerMode},
	} {
		single := Default(tc.layout, tc.mode)
		resS, err := Run(single, reads)
		if err != nil {
			t.Fatal(err)
		}
		if resS.Rounds != 1 {
			t.Fatalf("%s %s: single-round run reports %d rounds", tc.engine, tc.mode, resS.Rounds)
		}
		name := fmt.Sprintf("%s %s", tc.engine, tc.mode)
		multi := single
		multi.MemBudgetBytes = roundBudget(multi, 5_000) // forces several rounds per rank
		resM, err := Run(multi, reads)
		if err != nil {
			t.Fatal(err)
		}
		if resM.Rounds < 2 {
			t.Fatalf("%s: expected multiple rounds, got %d", name, resM.Rounds)
		}
		if resS.TotalKmers != resM.TotalKmers || resS.DistinctKmers != resM.DistinctKmers {
			t.Fatalf("%s: rounds changed results: %d/%d vs %d/%d", name,
				resS.TotalKmers, resS.DistinctKmers, resM.TotalKmers, resM.DistinctKmers)
		}
		if !reflect.DeepEqual(resM.Histogram.Counts, resS.Histogram.Counts) || !reflect.DeepEqual(resM.TopKmers, resS.TopKmers) {
			t.Fatalf("%s: rounds changed the histogram or the top k-mers", name)
		}
		// Supermer boundaries are window-relative to each round's buffer,
		// so the supermer count may shift by a handful of splits across
		// rounds; the k-mer content (checked above) is what must match.
		ratio := float64(resM.ItemsExchanged) / float64(resS.ItemsExchanged)
		if ratio < 0.99 || ratio > 1.01 {
			t.Fatalf("%s: exchanged items differ too much: %d vs %d", name, resS.ItemsExchanged, resM.ItemsExchanged)
		}
		checkAgainstOracle(t, multi, reads, resM)
	}
}

// TestDrainedRankReleasesBases pins the producer's release: a seat's base
// buffers stay while the input continues and are let go with the chunk
// that ends it — a one-round seat's first parse — while the bases that
// parse reads stay intact; the deals after the end allocate none.
func TestDrainedRankReleasesBases(t *testing.T) {
	reads := readsOf(10, 20, 30)
	var want dna.SeqBuffer
	for _, rd := range reads {
		want.AppendRead(rd.Seq)
	}
	p := newChunkProducer(Config{}, fastq.NewSliceSource(reads), 60, 1, 0)
	data, more, err := p.deal(0, 0)
	if err != nil || more {
		t.Fatalf("one-round deal: more %v, err %v", more, err)
	}
	if !bytes.Equal(data, want.Data()) {
		t.Fatalf("bases %q, want %q", data, want.Data())
	}
	if c := cap(p.bufs[0][0]); c != 0 {
		t.Fatalf("drained seat still holds a base buffer of capacity %d", c)
	}

	p = newChunkProducer(Config{}, fastq.NewSliceSource(reads), 30, 1, 0)
	if _, more, _ := p.deal(0, 0); !more || cap(p.bufs[0][0]) == 0 {
		t.Fatalf("first of several rounds: more %v, capacity %d; want true and the buffer kept", more, cap(p.bufs[0][0]))
	}
	if _, more, _ := p.deal(0, 1); more || cap(p.bufs[0][0]) != 0 || cap(p.bufs[0][1]) != 0 {
		t.Fatalf("last round: more %v, capacities %d and %d; want false and 0", more, cap(p.bufs[0][0]), cap(p.bufs[0][1]))
	}
	if data, more, _ := p.deal(0, 2); len(data) != 0 || more || cap(p.bufs[0][0]) != 0 {
		t.Fatalf("drained deal: %d bases, more %v, capacity %d", len(data), more, cap(p.bufs[0][0]))
	}
}

func TestMultiRoundCPU(t *testing.T) {
	reads := testReads(t, 10_000, 5)
	layout := cluster.SummitCPU(1)
	layout.RanksPerNode = 8
	layout.Net.RanksPerNode = 8
	cfg := Default(layout, SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 3_000)
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("expected multi-round CPU run, got %d rounds", res.Rounds)
	}
	checkAgainstOracle(t, cfg, reads, res)
}
