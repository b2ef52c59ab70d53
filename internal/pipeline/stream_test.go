package pipeline

import (
	"bytes"
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
	"dedukt/internal/dna"
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
// property: across engines, modes, Overlap on and off, exchange
// strategies, randomized k/m/window choices, and recoverable fault
// injection, RunStream over a bounded producer must reproduce Run's
// spectrum bit-for-bit — counts, histogram, top-k, and per-rank loads —
// while actually running multi-round under its memory budget. Half the cases stream from
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
			scfg.MemBudgetBytes = roundBudget(cfg, 2_500)
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
	_, err := RunStream(cfg, &failingSource{left: 40, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("want source error, got %v", err)
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

// dealRounds deals p's rounds to its seats until the input ends, each
// round asked for by the seats in the order given, and returns every
// round's chunks as read lengths and its more flag.
func dealRounds(t *testing.T, p *chunkProducer, order ...int) (rounds [][][]int, mores []bool) {
	t.Helper()
	for r := 0; r < 100; r++ {
		chunks := make([][]int, len(p.bufs))
		more := false
		for _, slot := range order {
			bases, m, err := p.deal(slot, r)
			if err != nil {
				t.Fatal(err)
			}
			if slot != order[0] && m != more {
				t.Fatalf("round %d: seat %d says more=%v, seat %d %v", r, slot, m, order[0], more)
			}
			more = m
			for _, read := range bytes.Split(bases, []byte{dna.SeparatorByte}) {
				if len(read) > 0 {
					chunks[slot] = append(chunks[slot], len(read))
				}
			}
		}
		rounds, mores = append(rounds, chunks), append(mores, more)
		if !more {
			return rounds, mores
		}
	}
	t.Fatal("producer never drained")
	return nil, nil
}

// readsOf returns reads of the given lengths with non-empty bases.
func readsOf(lens ...int) []fastq.Record {
	reads := mkReads(lens...)
	for _, rd := range reads {
		for j := range rd.Seq {
			rd.Seq[j] = "ACGT"[j%4]
		}
	}
	return reads
}

// TestChunkProducer pins the producer's contract: whole rounds dealt in a
// fixed order whatever order the seats ask in, each chunk ending at the
// last read boundary within its cumulative share of the round (at least
// one read a chunk while the source lasts), a more flag that is the same
// on every seat and exact (no empty trailing round), a whole uncapped
// input in one round, the read and base tallies, a checkpoint cursor that
// steps back over the held record, and bases copied out of the source's
// buffers.
func TestChunkProducer(t *testing.T) {
	deal := func(reads []fastq.Record, seats, share int, order ...int) ([][][]int, []bool) {
		return dealRounds(t, newChunkProducer(Config{}, fastq.NewSliceSource(reads), share, seats, 0), order...)
	}
	// Three seats of 25 bases a round: chunks end at the last read
	// boundary within 25, 50 and 75 bases of the round's start, each
	// taking at least one read.
	reads := readsOf(10, 10, 20, 30, 5, 10, 40, 10)
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}} {
		rounds, mores := deal(reads, 3, 25, order...)
		want := [][][]int{{{10, 10}, {20}, {30, 5}}, {{10}, {40}, {10}}}
		if !reflect.DeepEqual(rounds, want) || !reflect.DeepEqual(mores, []bool{true, false}) {
			t.Fatalf("order %v: rounds %v more %v, want %v [true false]", order, rounds, mores, want)
		}
	}
	// A round that fills exactly ends the input: no empty round follows.
	if rounds, mores := deal(readsOf(10, 10, 10, 10), 2, 20, 0, 1); len(rounds) != 1 || mores[0] {
		t.Fatalf("exactly one round of input: rounds %v more %v", rounds, mores)
	}
	// A share of 1/P of the input is one round of even shares.
	if rounds, mores := deal(readsOf(5, 5, 5, 5, 5, 5, 5), 3, 12, 1, 2, 0); !reflect.DeepEqual(rounds, [][][]int{{{5, 5}, {5, 5}, {5, 5, 5}}}) || mores[0] {
		t.Fatalf("uncapped input: rounds %v more %v", rounds, mores)
	}
	// A read longer than the share still forms a chunk of its own.
	if rounds, mores := deal(readsOf(100, 5), 2, 10, 0, 1); !reflect.DeepEqual(rounds, [][][]int{{{100}, {5}}}) || mores[0] {
		t.Fatalf("oversized read: rounds %v more %v", rounds, mores)
	}
	// An empty source: one round of empty chunks, more=false.
	if rounds, mores := deal(nil, 2, 25, 0, 1); !reflect.DeepEqual(rounds, [][][]int{{nil, nil}}) || mores[0] {
		t.Fatalf("empty source: rounds %v more %v", rounds, mores)
	}

	// Tallies and the checkpoint cursor: after round 0 the producer holds
	// round 1's first read, so the cursor replays it.
	cfg := Config{Ckpt: CkptConfig{Dir: "x"}}
	p := newChunkProducer(cfg, fastq.NewSliceSource(reads), 25, 3, 0)
	if _, _, err := p.deal(0, 0); err != nil {
		t.Fatal(err)
	}
	if cur, n, b := p.ckptCursor(); cur.Record != 5 || n != 5 || b != 75 {
		t.Fatalf("cursor after round 0: record %d, %d reads, %d bases; want 5, 5, 75", cur.Record, n, b)
	}
	dealRounds(t, p, 0, 1, 2)
	if p.reads != 8 || p.bases != 135 {
		t.Fatalf("tallies %d reads / %d bases, want 8/135", p.reads, p.bases)
	}

	// The producer copies bases: mutating the source's buffers after a
	// deal must not change what was dealt.
	mut := readsOf(4, 4)
	p = newChunkProducer(Config{}, fastq.NewSliceSource(mut), 4, 1, 0)
	dealt, _, err := p.deal(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mut[0].Seq[0] = 'T'
	if want := "ACGT" + string(dna.SeparatorByte); string(dealt) != want {
		t.Fatalf("dealt %q after the source changed, want %q", dealt, want)
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
		cfg.MemBudgetBytes = roundBudget(cfg, basesPerRank)
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
