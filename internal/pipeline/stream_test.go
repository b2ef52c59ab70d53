package pipeline

import (
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/genome"
)

// smallCPULayout mirrors smallGPULayout for the CPU engine.
func smallCPULayout() cluster.Layout {
	l := cluster.SummitCPU(1)
	l.RanksPerNode = 6
	l.Net.RanksPerNode = 6
	return l
}

// writeGzFiles splits reads across n gzip-compressed FASTQ files in a
// temp dir, returning the paths.
func writeGzFiles(t *testing.T, reads []fastq.Record, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	per := (len(reads) + n - 1) / n
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > len(reads) {
			hi = len(reads)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("part%d.fastq.gz", i))
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		fw := fastq.NewWriter(zw)
		for _, rec := range reads[lo:hi] {
			if err := fw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestStreamMatchesInMemory is the streaming/in-memory equivalence
// property: across engines, modes, schedules, randomized k/m/window
// choices, and recoverable fault injection, RunStream over a bounded
// producer must reproduce Run's spectrum bit-for-bit — counts,
// histogram, top-k, and per-rank loads — while actually running
// multi-round under its memory budget. Half the cases stream from
// gzip-compressed multi-file fixtures, the other half from an in-memory
// source.
func TestStreamMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type tcase struct {
		engine  string
		mode    Mode
		overlap bool
		faulted bool
		exch    Exchange
	}
	var cases []tcase
	for _, engine := range []string{"gpu", "cpu"} {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			for _, overlap := range []bool{false, true} {
				for _, faulted := range []bool{false, true} {
					for _, exch := range []Exchange{ExchangeFlat, ExchangeHier} {
						cases = append(cases, tcase{engine, mode, overlap, faulted, exch})
					}
				}
			}
		}
	}
	for i, tc := range cases {
		name := fmt.Sprintf("%s/%s/overlap=%v/faulted=%v/%s", tc.engine, tc.mode, tc.overlap, tc.faulted, tc.exch)
		// Per-case randomized operating point and dataset.
		k := []int{15, 17, 21}[rng.Intn(3)]
		m := []int{5, 7}[rng.Intn(2)]
		window := []int{9, 15}[rng.Intn(2)]
		reads := testReads(t, 6_000+rng.Intn(4_000), 3+rng.Float64()*2)
		// Alternate at stride 2 so both exchange strategies (the innermost
		// dimension) see both file-backed and in-memory sources.
		fromFiles := i%4 < 2
		t.Run(name, func(t *testing.T) {
			layout := smallGPULayout(1)
			if tc.engine == "cpu" {
				layout = smallCPULayout()
			}
			cfg := Default(layout, tc.mode)
			cfg.K, cfg.M, cfg.Window = k, m, window
			cfg.Overlap = tc.overlap
			cfg.Exchange = tc.exch
			if tc.exch == ExchangeHier {
				// Group the 6 test ranks into 3 fabric nodes of 2 so the
				// hierarchical strategy actually has leaders to route through.
				cfg.Layout.Net.RanksPerNode = 2
			}
			if tc.faulted {
				cfg.Fault = fault.Config{
					Seed: uint64(100 + i), Delay: 0.02, DelayFor: 100 * time.Microsecond,
					Drop: 0.03, Corrupt: 0.02,
				}
			}
			want, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			// The streamed run pulls through the shared bounded producer,
			// sized to force several rounds.
			scfg := cfg
			scfg.MemBudgetBytes = int64(cfg.Layout.Ranks() * streamBytesPerBase * 2_500)
			var src fastq.Source
			if fromFiles {
				stream, err := fastq.OpenStream(writeGzFiles(t, reads, 3)...)
				if err != nil {
					t.Fatal(err)
				}
				defer stream.Close()
				src = stream
			} else {
				src = fastq.NewSliceSource(reads)
			}
			got, err := RunStream(scfg, src)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rounds < 2 {
				t.Fatalf("streamed run should be multi-round, got %d rounds", got.Rounds)
			}
			if !got.Streamed || got.MemBudget != scfg.MemBudgetBytes {
				t.Fatalf("streamed accounting wrong: %v/%d", got.Streamed, got.MemBudget)
			}
			if got.InputReads != uint64(len(reads)) {
				t.Fatalf("InputReads = %d, want %d", got.InputReads, len(reads))
			}
			if want.Incomplete || got.Incomplete {
				t.Fatalf("injected faults must recover fully (incomplete: in-memory=%v streamed=%v)",
					want.Incomplete, got.Incomplete)
			}
			sameCounts(t, want, got)
			if !reflect.DeepEqual(want.PerRankKmers, got.PerRankKmers) {
				t.Fatalf("per-rank loads differ:\n in-memory %v\n streamed  %v", want.PerRankKmers, got.PerRankKmers)
			}
			checkAgainstOracle(t, cfg, reads, got)
		})
	}
}

// TestStreamKillFault: a killed rank must fail the streamed run the same
// way it fails the in-memory one — a structured error, not a hang on the
// end-of-stream agreement.
func TestStreamKillFault(t *testing.T) {
	reads := testReads(t, 5_000, 3)
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.Fault = fault.Config{Seed: 5, Kill: 1}
	if _, err := Run(cfg, reads); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("in-memory kill: %v", err)
	}
	cfg.MemBudgetBytes = 1 << 20
	if _, err := RunStream(cfg, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("streamed kill: %v", err)
	}
}

// failingSource delivers a few records, then fails.
type failingSource struct {
	left int
	err  error
}

func (s *failingSource) Next() (fastq.Record, error) {
	if s.left == 0 {
		return fastq.Record{}, s.err
	}
	s.left--
	return fastq.Record{ID: "r", Seq: []byte("ACGTACGTACGTACGTACGT")}, nil
}

// TestStreamSourceError: a source failure mid-stream must fail the whole
// run with the source's error — every rank surfaces it via the sticky
// producer, no deadlock, no partial silent result.
func TestStreamSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.MemBudgetBytes = 1 << 20
	for _, overlap := range []bool{false, true} {
		cfg.Overlap = overlap
		_, err := RunStream(cfg, &failingSource{left: 40, err: boom})
		if !errors.Is(err, boom) {
			t.Fatalf("overlap=%v: want source error, got %v", overlap, err)
		}
	}
}

// TestStreamRejectsWholeInputFeatures: a missing source is a structured
// error, not a panic. (Settings that need the whole input up front are
// rows of the combination table, covered by TestAllVariantsMatchOracle.)
func TestStreamRejectsWholeInputFeatures(t *testing.T) {
	if _, err := RunStream(Default(smallGPULayout(1), KmerMode), nil); err == nil {
		t.Fatal("nil source must be rejected")
	}
}

// TestChunkProducer pins the shared producer's contract: deterministic
// cut points matching sliceChunker's, an exact more flag (the overflow
// record is retained as pending, never dropped), empty-source behavior,
// and steady-state empties after drain.
func TestChunkProducer(t *testing.T) {
	pull := func(p *chunkProducer) (sizes []int, mores []bool) {
		h := &streamHandle{prod: p}
		for i := 0; i < 100; i++ {
			recs, more, err := h.nextChunk()
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, len(recs))
			mores = append(mores, more)
			if !more {
				return sizes, mores
			}
		}
		t.Fatal("producer never drained")
		return nil, nil
	}
	// Same cut points as the in-memory sliceChunker: [10,10] [20] [30].
	reads := mkReads(10, 10, 20, 30)
	p := &chunkProducer{src: fastq.NewSliceSource(reads), maxBases: 25}
	sizes, mores := pull(p)
	if !reflect.DeepEqual(sizes, []int{2, 1, 1}) {
		t.Fatalf("chunk sizes %v, want [2 1 1]", sizes)
	}
	if !reflect.DeepEqual(mores, []bool{true, true, false}) {
		t.Fatalf("more flags %v, want [true true false]", mores)
	}
	if p.reads != 4 || p.bases != 70 {
		t.Fatalf("tallies %d reads / %d bases, want 4/70", p.reads, p.bases)
	}
	// Drained producer keeps serving empty chunks.
	h := &streamHandle{prod: p}
	if recs, more, err := h.nextChunk(); err != nil || more || len(recs) != 0 {
		t.Fatal("drained producer must keep returning empty chunks")
	}
	// Empty source: one empty pull, more=false.
	sizes, mores = pull(&chunkProducer{src: fastq.NewSliceSource(nil), maxBases: 25})
	if !reflect.DeepEqual(sizes, []int{0}) || mores[0] {
		t.Fatalf("empty source: sizes=%v mores=%v", sizes, mores)
	}
	// The producer deep-copies chunks: mutating the source's buffers
	// after a pull must not change delivered bases.
	mut := []fastq.Record{{Seq: []byte("AAAA")}, {Seq: []byte("CCCC")}}
	p = &chunkProducer{src: fastq.NewSliceSource(mut), maxBases: 4}
	h = &streamHandle{prod: p}
	recs, _, err := h.nextChunk()
	if err != nil {
		t.Fatal(err)
	}
	mut[0].Seq[0] = 'T' // the pending record for chunk 2 was cloned
	if string(recs[0].Seq) != "AAAA" {
		t.Fatalf("chunk aliases source buffer: %q", recs[0].Seq)
	}
	recs, _, err = h.nextChunk()
	if err != nil {
		t.Fatal(err)
	}
	if string(recs[0].Seq) != "CCCC" {
		t.Fatalf("pending record corrupted: %q", recs[0].Seq)
	}
}

// heapSampler polls the live heap in the background and records the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

// TestStreamBoundedMemory is the out-of-core regression: stream a
// dataset ≥8× larger than MemBudgetBytes and assert the peak live heap
// during the run stays under budget + a fixed slack. The in-memory path
// would hold the whole read set plus single-round send/recv buffers —
// an order of magnitude over the ceiling asserted here — so the test
// fails if streaming ever regresses to materializing its input.
func TestStreamBoundedMemory(t *testing.T) {
	const budget = int64(512 << 10)
	// Generate and write the dataset inside a helper so the read slice
	// dies before the baseline measurement.
	dataset := func() string {
		g, err := genome.Generate("big", genome.Config{
			Length: 50_000, RepeatFraction: 0.1, RepeatMinLen: 100,
			RepeatMaxLen: 300, GC: 0.5, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		prof := genome.DefaultLongReads()
		prof.MeanLen = 500
		prof.ErrRate = 0 // keep the spectrum (and tables) small
		reads, err := genome.SimulateReads(g, 96, prof)
		if err != nil {
			t.Fatal(err)
		}
		var bases int64
		for _, r := range reads {
			bases += int64(len(r.Seq))
		}
		if bases < 8*budget {
			t.Fatalf("dataset %d bases is under 8x budget %d", bases, budget)
		}
		path := filepath.Join(t.TempDir(), "big.fastq")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := fastq.NewWriter(f)
		for _, rec := range reads {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}()

	layout := cluster.SummitCPU(1)
	layout.RanksPerNode = 2
	layout.Net.RanksPerNode = 2
	cfg := Default(layout, KmerMode)
	cfg.MemBudgetBytes = budget

	// Tighten the GC so sampled HeapAlloc tracks live data instead of
	// round-loop garbage awaiting collection.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	sampler := startHeapSampler()

	src, err := fastq.OpenStream(dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	res, err := RunStream(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	peak := sampler.Stop()

	if res.InputBases < uint64(8*budget) {
		t.Fatalf("streamed only %d bases, want >= %d", res.InputBases, 8*budget)
	}
	if res.Rounds < 8 {
		t.Fatalf("want a deeply multi-round run, got %d rounds", res.Rounds)
	}
	if res.TotalKmers == 0 {
		t.Fatal("no k-mers counted")
	}
	// Fixed slack: runtime overhead, the counter tables (output, not
	// input, state), and GC lag. The in-memory path peaks far above
	// budget+slack on this dataset.
	const slack = 16 << 20
	used := int64(peak) - int64(base.HeapAlloc)
	t.Logf("peak live heap over baseline: %.1f MiB (budget %.1f MiB, %d rounds, %d bases)",
		float64(used)/(1<<20), float64(budget)/(1<<20), res.Rounds, res.InputBases)
	if used > budget+slack {
		t.Fatalf("peak live heap %d bytes over baseline exceeds budget %d + slack %d", used, budget, slack)
	}
}

// TestStreamLoopAllocs pins the streamed round loop's marginal allocation
// cost, the streaming twin of TestRoundLoopAllocs: shrinking the memory
// budget multiplies the rounds the same input takes, and each extra round
// may only cost pooled-loop overhead — not re-grown kernel scratch or
// per-item framing garbage (the regression that once put the streamed
// benchmark at ~9× the in-memory allocation count).
func TestStreamLoopAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	reads := testReads(t, 20_000, 8)
	run := func(basesPerRank int) (rounds int) {
		cfg := Default(smallGPULayout(1), SupermerMode)
		cfg.MemBudgetBytes = int64(cfg.Layout.Ranks() * streamBytesPerBase * basesPerRank)
		res, err := RunStream(cfg, fastq.NewSliceSource(reads))
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	measure := func(basesPerRank int) (float64, int) {
		var rounds int
		allocs := testing.AllocsPerRun(3, func() {
			rounds = run(basesPerRank)
		})
		return allocs, rounds
	}
	aFew, rFew := measure(12_000)
	aMany, rMany := measure(3_000)
	if rMany <= rFew || rFew < 2 {
		t.Fatalf("want rMany > rFew >= 2, got %d and %d rounds", rMany, rFew)
	}
	perRound := (aMany - aFew) / float64(rMany-rFew)
	t.Logf("rounds %d -> %d, allocs %.0f -> %.0f, marginal %.1f allocs/round", rFew, rMany, aFew, aMany, perRound)
	// Measured ~400 allocs/round (the in-memory loop's overhead plus the
	// producer's per-chunk record headers); the budget leaves headroom for
	// scheduler noise without readmitting per-item costs.
	const budget = 1500
	if perRound > budget {
		t.Fatalf("marginal cost %.1f allocs/round exceeds budget %d", perRound, budget)
	}
}
