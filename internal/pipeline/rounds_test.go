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

// drainChunker pulls a chunk source dry, returning the chunk sizes (in
// records) and the more-flag sequence.
func drainChunker(t *testing.T, src chunkSource) (sizes []int, mores []bool) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		recs, more, err := src.nextChunk()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(recs))
		mores = append(mores, more)
		if !more {
			return sizes, mores
		}
	}
	t.Fatal("chunk source never drained")
	return nil, nil
}

func TestSliceChunker(t *testing.T) {
	// No cap: single chunk holding everything.
	sizes, mores := drainChunker(t, &sliceChunker{reads: mkReads(10, 20)})
	if len(sizes) != 1 || sizes[0] != 2 || mores[0] {
		t.Fatalf("uncapped chunking wrong: sizes=%v mores=%v", sizes, mores)
	}
	// Cap 25: [10,10] [20] [30] — the final partial chunk (30 > what's
	// left of nothing) still arrives, with more=false only on the last.
	sizes, mores = drainChunker(t, &sliceChunker{reads: mkReads(10, 10, 20, 30), maxBases: 25})
	if len(sizes) != 3 || sizes[0] != 2 || sizes[1] != 1 || sizes[2] != 1 {
		t.Fatalf("chunk sizes: %v, want [2 1 1]", sizes)
	}
	if !mores[0] || !mores[1] || mores[2] {
		t.Fatalf("more flags: %v, want [true true false]", mores)
	}
	// A read larger than the cap still forms its own chunk.
	sizes, _ = drainChunker(t, &sliceChunker{reads: mkReads(100), maxBases: 10})
	if len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("oversized read should be its own chunk, got %v", sizes)
	}
	// Empty input: one empty pull with more=false, then steady-state
	// empties — a drained rank keeps pulling while peers finish.
	empty := &sliceChunker{maxBases: 10}
	sizes, mores = drainChunker(t, empty)
	if len(sizes) != 1 || sizes[0] != 0 || mores[0] {
		t.Fatalf("empty input: sizes=%v mores=%v", sizes, mores)
	}
	if recs, more, err := empty.nextChunk(); err != nil || more || len(recs) != 0 {
		t.Fatal("drained chunker must keep returning empty chunks")
	}
}

// TestUnevenTailDrain pins the last-chunk boundary fix: ranks with wildly
// uneven inputs — including a rank with no reads at all — must keep
// participating in the collectives until the longest rank drains, a
// final partial chunk below the cap must still be counted, and the
// result must match the oracle. Exercised on both schedules, since the
// overlapped loop takes a different path for drained ranks.
func TestUnevenTailDrain(t *testing.T) {
	reads := testReads(t, 9_000, 4)
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.RoundBases = 2_500
	p := cfg.Layout.Ranks()
	for _, overlap := range []bool{false, true} {
		cfg.Overlap = overlap
		// Skewed hand-built split: rank 0 gets nearly everything, rank 1
		// a single read, the rest nothing.
		sources := make([]chunkSource, p)
		sources[0] = &sliceChunker{reads: reads[:len(reads)-1], maxBases: cfg.RoundBases}
		sources[1] = &sliceChunker{reads: reads[len(reads)-1:], maxBases: cfg.RoundBases}
		for r := 2; r < p; r++ {
			sources[r] = &sliceChunker{maxBases: cfg.RoundBases}
		}
		rs, seats, err := newRunState(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rs.world(nil, sources, seats, nil, nil); err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		res := rs.result()
		// Every rank ran as many rounds as the heaviest one's chunks.
		want, _ := drainChunker(t, &sliceChunker{reads: reads[:len(reads)-1], maxBases: cfg.RoundBases})
		if res.Rounds != len(want) {
			t.Fatalf("overlap=%v: rounds=%d, want %d", overlap, res.Rounds, len(want))
		}
		if res.Rounds < 3 {
			t.Fatalf("overlap=%v: want a multi-round run, got %d", overlap, res.Rounds)
		}
		checkAgainstOracle(t, cfg, reads, res)
	}
}

func TestMultiRoundMatchesSingleRound(t *testing.T) {
	// §III-A: multi-round execution must not change results; only the
	// per-round buffer sizes differ. Overlapped, a rank pulls round r+1's
	// bases into its one base buffer while round r's rows are still in
	// flight: a send row that aliased that buffer would be overwritten under
	// a peer (and reported under -race).
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
		for _, overlap := range []bool{false, true} {
			name := fmt.Sprintf("%s %s overlap=%v", tc.engine, tc.mode, overlap)
			multi := single
			multi.RoundBases, multi.Overlap = 5_000, overlap // forces several rounds per rank
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
}

// TestDrainedRankReleasesBases pins pullBases: the rank's base buffer keeps
// its array while the input continues and lets go of it with the chunk that
// drains the input — a one-round rank's first parse — while the bases that
// parse reads stay intact; the empty pulls of a drained rank allocate none.
func TestDrainedRankReleasesBases(t *testing.T) {
	reads := mkReads(10, 20, 30)
	for i := range reads {
		for j := range reads[i].Seq {
			reads[i].Seq[j] = "ACGT"[(i+j)%4]
		}
	}
	var want dna.SeqBuffer
	for _, rd := range reads {
		want.AppendRead(rd.Seq)
	}
	var buf dna.SeqBuffer
	data, more, err := pullBases(&sliceChunker{reads: reads}, &buf)
	if err != nil || more {
		t.Fatalf("one-round pull: more %v, err %v", more, err)
	}
	if !bytes.Equal(data, want.Data()) {
		t.Fatalf("bases %q, want %q", data, want.Data())
	}
	if c := cap(buf.Data()); c != 0 {
		t.Fatalf("drained rank still holds a base buffer of capacity %d", c)
	}

	src := &sliceChunker{reads: reads, maxBases: 30}
	if _, more, _ := pullBases(src, &buf); !more || cap(buf.Data()) == 0 {
		t.Fatalf("first of several rounds: more %v, capacity %d; want true and the buffer kept", more, cap(buf.Data()))
	}
	if _, more, _ := pullBases(src, &buf); more || cap(buf.Data()) != 0 {
		t.Fatalf("last round: more %v, capacity %d; want false and 0", more, cap(buf.Data()))
	}
	if data, more, _ := pullBases(src, &buf); len(data) != 0 || more || cap(buf.Data()) != 0 {
		t.Fatalf("drained pull: %d bases, more %v, capacity %d", len(data), more, cap(buf.Data()))
	}
}

func TestMultiRoundCPU(t *testing.T) {
	reads := testReads(t, 10_000, 5)
	layout := cluster.SummitCPU(1)
	layout.RanksPerNode = 8
	layout.Net.RanksPerNode = 8
	cfg := Default(layout, SupermerMode)
	cfg.RoundBases = 3_000
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("expected multi-round CPU run, got %d rounds", res.Rounds)
	}
	checkAgainstOracle(t, cfg, reads, res)
}

func TestRoundBasesValidation(t *testing.T) {
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.RoundBases = -1
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("negative RoundBases should be rejected")
	}
}
