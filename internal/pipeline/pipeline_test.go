package pipeline

import (
	"runtime"
	"slices"
	"testing"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/minimizer"
)

// testReads generates a small deterministic read set.
func testReads(t *testing.T, genomeLen int, coverage float64) []fastq.Record {
	t.Helper()
	g, err := genome.Generate("t", genome.Config{
		Length: genomeLen, RepeatFraction: 0.2,
		RepeatMinLen: 100, RepeatMaxLen: 400, GC: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := genome.DefaultLongReads()
	prof.MeanLen = 800
	prof.AmbigRate = 0.002
	reads, err := genome.SimulateReads(g, coverage, prof)
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

func oracleFor(cfg Config, reads []fastq.Record) map[dna.Kmer]uint32 {
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	m := kcount.SerialCount(cfg.Enc, seqs, cfg.K)
	if cfg.Canonical {
		canon := make(map[dna.Kmer]uint32, len(m))
		for w, c := range m {
			canon[w.Canonical(cfg.Enc, cfg.K)] += c
		}
		return canon
	}
	return m
}

func checkAgainstOracle(t *testing.T, cfg Config, reads []fastq.Record, res *Result) {
	t.Helper()
	oracle := oracleFor(cfg, reads)
	var wantTotal uint64
	for _, c := range oracle {
		wantTotal += uint64(c)
	}
	if res.TotalKmers != wantTotal {
		t.Fatalf("TotalKmers = %d, oracle %d", res.TotalKmers, wantTotal)
	}
	if res.DistinctKmers != uint64(len(oracle)) {
		t.Fatalf("DistinctKmers = %d, oracle %d", res.DistinctKmers, len(oracle))
	}
	if res.Histogram.Total() != wantTotal || res.Histogram.Distinct() != uint64(len(oracle)) {
		t.Fatalf("histogram total/distinct %d/%d, oracle %d/%d",
			res.Histogram.Total(), res.Histogram.Distinct(), wantTotal, len(oracle))
	}
	var perRank uint64
	for _, v := range res.PerRankKmers {
		perRank += v
	}
	if perRank != wantTotal {
		t.Fatalf("per-rank sum %d != total %d", perRank, wantTotal)
	}
}

func smallGPULayout(nodes int) cluster.Layout {
	l := cluster.SummitGPU(nodes)
	return l
}

func TestAllVariantsMatchOracle(t *testing.T) {
	// Property (a) of DESIGN.md: every pipeline variant reproduces the
	// serial oracle exactly.
	reads := testReads(t, 20_000, 8)
	layouts := map[string]cluster.Layout{
		"gpu": smallGPULayout(2), // 12 ranks
		"cpu": func() cluster.Layout {
			// Two nodes: a single-node world has no fabric traffic, so its
			// modeled exchange time is legitimately zero and the phase
			// breakdown assertion below would be vacuous.
			l := cluster.SummitCPU(2)
			l.RanksPerNode = 4 // keep the test world small
			l.Net.RanksPerNode = 4
			return l
		}(),
	}
	for engName, layout := range layouts {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			name := engName + "/" + mode.String()
			t.Run(name, func(t *testing.T) {
				cfg := Default(layout, mode)
				res, err := Run(cfg, reads)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, cfg, reads, res)
				if res.Modeled.Parse <= 0 || res.Modeled.Exchange <= 0 || res.Modeled.Count <= 0 {
					t.Fatalf("phase breakdown not populated: %+v", res.Modeled)
				}
				if res.ItemsExchanged == 0 || res.PayloadBytes == 0 {
					t.Fatal("exchange accounting missing")
				}
			})
		}
	}
}

func TestKmerAndSupermerCountIdentically(t *testing.T) {
	// The two modes must produce the same histogram — supermers are a
	// transport optimization, not a semantic change (§IV-A).
	reads := testReads(t, 15_000, 6)
	layout := smallGPULayout(1)
	resK, err := Run(Default(layout, KmerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := Run(Default(layout, SupermerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	if resK.TotalKmers != resS.TotalKmers || resK.DistinctKmers != resS.DistinctKmers {
		t.Fatalf("modes disagree: kmer %d/%d supermer %d/%d",
			resK.TotalKmers, resK.DistinctKmers, resS.TotalKmers, resS.DistinctKmers)
	}
	for f, c := range resK.Histogram.Counts {
		if resS.Histogram.Counts[f] != c {
			t.Fatalf("histogram class %d: %d vs %d", f, c, resS.Histogram.Counts[f])
		}
	}
}

func TestSupermerReducesExchange(t *testing.T) {
	// Table II / §V-D: supermers cut both item count (~3-4×) and payload
	// bytes (~2.5-3.5× at m=7, window=15) versus k-mer mode.
	reads := testReads(t, 30_000, 10)
	layout := smallGPULayout(2)
	resK, err := Run(Default(layout, KmerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := Run(Default(layout, SupermerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	itemRatio := float64(resK.ItemsExchanged) / float64(resS.ItemsExchanged)
	byteRatio := float64(resK.PayloadBytes) / float64(resS.PayloadBytes)
	if itemRatio < 2.0 {
		t.Fatalf("item reduction %.2f, want > 2", itemRatio)
	}
	if byteRatio < 1.8 {
		t.Fatalf("byte reduction %.2f, want > 1.8", byteRatio)
	}
	if resS.AlltoallvTime >= resK.AlltoallvTime {
		t.Fatalf("supermer alltoallv %v not faster than kmer %v", resS.AlltoallvTime, resK.AlltoallvTime)
	}
	t.Logf("reduction: items %.2f×, bytes %.2f×, alltoallv %.2f×",
		itemRatio, byteRatio, resK.AlltoallvTime.Seconds()/resS.AlltoallvTime.Seconds())
}

func TestGPUParseFasterThanCPU(t *testing.T) {
	// Fig. 3: at equal node count, GPU compute phases are orders of
	// magnitude faster; exchange volume is identical.
	reads := testReads(t, 15_000, 6)
	gpu := Default(smallGPULayout(1), KmerMode) // 6 ranks
	cpuLayout := cluster.SummitCPU(1)           // 42 ranks, same node count
	cpu := Default(cpuLayout, KmerMode)
	resG, err := Run(gpu, reads)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := Run(cpu, reads)
	if err != nil {
		t.Fatal(err)
	}
	computeG := resG.Modeled.Parse + resG.Modeled.Count
	computeC := resC.Modeled.Parse + resC.Modeled.Count
	if ratio := computeC.Seconds() / computeG.Seconds(); ratio < 5 {
		t.Fatalf("GPU compute speedup %.1f×, want ≥5× even at toy scale", ratio)
	} else {
		t.Logf("node-for-node compute speedup: %.1f×", ratio)
	}
	if resG.TotalKmers != resC.TotalKmers {
		t.Fatalf("engines count differently: %d vs %d", resG.TotalKmers, resC.TotalKmers)
	}
}

func TestCanonicalMode(t *testing.T) {
	reads := testReads(t, 8_000, 5)
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.Canonical = true
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, cfg, reads, res)
	// Canonical counting merges k-mers with their reverse complements.
	plain, err := Run(Default(smallGPULayout(1), KmerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.DistinctKmers >= plain.DistinctKmers {
		t.Fatalf("canonical distinct %d should be < plain %d", res.DistinctKmers, plain.DistinctKmers)
	}
	if res.TotalKmers != plain.TotalKmers {
		t.Fatal("canonicalization must preserve the multiset size")
	}
}

func TestCanonicalSupermerRejected(t *testing.T) {
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Canonical = true
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("canonical supermer mode should be rejected")
	}
}

func TestGPUDirectSkipsStaging(t *testing.T) {
	reads := testReads(t, 10_000, 5)
	staged := Default(smallGPULayout(1), KmerMode)
	direct := staged
	direct.GPUDirect = true
	resStaged, err := Run(staged, reads)
	if err != nil {
		t.Fatal(err)
	}
	resDirect, err := Run(direct, reads)
	if err != nil {
		t.Fatal(err)
	}
	if resDirect.Modeled.Exchange >= resStaged.Modeled.Exchange {
		t.Fatalf("GPUDirect exchange %v not faster than staged %v",
			resDirect.Modeled.Exchange, resStaged.Modeled.Exchange)
	}
	if resDirect.TotalKmers != resStaged.TotalKmers {
		t.Fatal("transport mode changed results")
	}
}

func TestConfigValidation(t *testing.T) {
	layout := smallGPULayout(1)
	bad := []Config{
		{Layout: layout, Enc: nil, K: 17},
		{Layout: layout, Enc: &dna.Random, K: 0},
		{Layout: layout, Enc: &dna.Random, K: 40},
		{Layout: layout, Enc: &dna.Random, K: 17, Mode: SupermerMode, M: 0, Window: 15},
		{Layout: layout, Enc: &dna.Random, K: 17, Mode: SupermerMode, M: 7, Window: 0},
		{Layout: cluster.Layout{}, Enc: &dna.Random, K: 17},
		{Layout: layout, Enc: &dna.Random, K: 17, Mode: SupermerMode, M: 7, Window: 15, Canonical: true},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail Validate", i)
		}
		if _, err := Run(cfg, nil); err == nil {
			t.Errorf("config %d should be rejected by Run", i)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(Default(smallGPULayout(1), KmerMode), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalKmers != 0 || res.ItemsExchanged != 0 {
		t.Fatalf("empty input counted something: %+v", res)
	}
}

func TestLoadImbalanceSupermersWorse(t *testing.T) {
	// Table III: minimizer partitioning is more skewed than k-mer hashing.
	reads := testReads(t, 40_000, 10)
	layout := smallGPULayout(2)
	resK, err := Run(Default(layout, KmerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := Run(Default(layout, SupermerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	liK, liS := resK.LoadImbalance(), resS.LoadImbalance()
	if liS <= liK {
		t.Fatalf("supermer imbalance %.3f should exceed kmer imbalance %.3f", liS, liK)
	}
	minK, maxK := slices.Min(resK.PerRankKmers), slices.Max(resK.PerRankKmers)
	if minK == 0 || maxK < minK {
		t.Fatalf("per-rank range broken: %d..%d", minK, maxK)
	}
	t.Logf("imbalance: kmer %.3f, supermer %.3f", liK, liS)
}

func TestResultHelpers(t *testing.T) {
	r := &Result{PerRankKmers: []uint64{10, 20, 30}}
	if li := r.LoadImbalance(); li < 1.49 || li > 1.51 {
		t.Fatalf("imbalance = %.3f, want 1.5", li)
	}
	empty := &Result{}
	if empty.LoadImbalance() != 0 || empty.InsertionRate() != 0 {
		t.Fatal("empty result helpers should return 0")
	}
}

func TestMinimizerOrderingConfigurable(t *testing.T) {
	reads := testReads(t, 10_000, 5)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Ord = minimizer.NewKMC2(cfg.Enc)
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, cfg, reads, res)
}

func TestKeepTablesAndGPUStats(t *testing.T) {
	reads := testReads(t, 12_000, 5)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.KeepTables = true
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != res.Ranks {
		t.Fatalf("kept %d tables for %d ranks", len(res.Tables), res.Ranks)
	}
	merged := res.MergedTable()
	if merged == nil || uint64(merged.Len()) != res.DistinctKmers {
		t.Fatalf("merged table has %d keys, result says %d", merged.Len(), res.DistinctKmers)
	}
	if merged.Histogram().Total() != res.TotalKmers {
		t.Fatal("merged table count mismatch")
	}
	// GPU kernel stats aggregated.
	if res.GPUParse.Threads == 0 || res.GPUCount.Threads == 0 {
		t.Fatalf("GPU kernel stats not aggregated: %+v %+v", res.GPUParse, res.GPUCount)
	}
	if res.GPUParse.MemTransactions == 0 || res.GPUCount.AtomicOps == 0 {
		t.Fatal("GPU kernel counters empty")
	}

	// Without KeepTables, tables are discarded and MergedTable is nil.
	plain, err := Run(Default(smallGPULayout(1), SupermerMode), reads)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tables != nil || plain.MergedTable() != nil {
		t.Fatal("tables retained without KeepTables")
	}
}

// TestKeepTablesRunCollects pins the two collections that bracket the ranks
// of a run whose tables the caller keeps, and that no other run forces one.
func TestKeepTablesRunCollects(t *testing.T) {
	reads := testReads(t, 12_000, 5)
	forced := func(keep bool) uint32 {
		cfg := Default(smallCPULayout(), KmerMode)
		cfg.KeepTables = keep
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, reads); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.NumForcedGC - before.NumForcedGC
	}
	if n := forced(true); n != 2 {
		t.Errorf("a run that keeps its tables forced %d collections, want 2", n)
	}
	if n := forced(false); n != 0 {
		t.Errorf("a run that discards its tables forced %d collections, want 0", n)
	}
}
