// Benchmarks regenerating the shape of every table and figure in the
// paper's evaluation (§V), plus ablations over the design choices called
// out in DESIGN.md. Each benchmark runs the relevant pipelines on a reduced
// synthetic dataset and reports the figure's key quantity via ReportMetric
// (speedup factors, reduction factors, imbalance ratios), so `go test
// -bench=.` doubles as a quick shape check; `cmd/experiments -run all`
// produces the full-size tables recorded in EXPERIMENTS.md.
package dedukt_test

import (
	"testing"

	"dedukt"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/expt"
	"dedukt/internal/genome"
	"dedukt/internal/minimizer"
	"dedukt/internal/pipeline"
)

// benchScale keeps benchmark iterations fast; the experiment CLI runs at 1.0.
const benchScale = 0.05

func datasetReads(b *testing.B, name string, scale float64) []dedukt.Read {
	b.Helper()
	d, err := genome.DatasetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := d.Reads(scale)
	if err != nil {
		b.Fatal(err)
	}
	return reads
}

func mustRun(b *testing.B, cfg pipeline.Config, reads []dedukt.Read) *pipeline.Result {
	b.Helper()
	res, err := pipeline.Run(cfg, reads)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// paperGPU/paperCPU mirror the experiment harness' scaled layouts.
func paperGPU(nodes int) cluster.Layout {
	l := cluster.SummitGPU(nodes)
	l.Net.LatencyUs = 0
	g := *l.GPU
	g.LaunchOverheadUs = 0
	g.LinkLatencyUs = 0
	l.GPU = &g
	return l
}

func paperCPU(nodes int) cluster.Layout {
	l := cluster.SummitCPU(nodes)
	l.Net.LatencyUs = 0
	return l
}

// BenchmarkFig3Breakdown regenerates Fig. 3: CPU vs GPU k-mer counters at
// equal node count on H. sapien 54X; reports the compute acceleration and
// the exchange share of the GPU total.
func BenchmarkFig3Breakdown(b *testing.B) {
	reads := datasetReads(b, "H. sapien 54X", benchScale)
	cpuCfg := pipeline.Default(paperCPU(8), pipeline.KmerMode)
	cpuCfg.CPULoadLift = 1e4
	gpuCfg := pipeline.Default(paperGPU(8), pipeline.KmerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpuRes := mustRun(b, cpuCfg, reads)
		gpuRes := mustRun(b, gpuCfg, reads)
		computeCPU := (cpuRes.Modeled.Parse + cpuRes.Modeled.Count).Seconds()
		computeGPU := (gpuRes.Modeled.Parse + gpuRes.Modeled.Count).Seconds()
		b.ReportMetric(computeCPU/computeGPU, "compute-speedup")
		b.ReportMetric(100*gpuRes.Modeled.Exchange.Seconds()/gpuRes.Modeled.Total().Seconds(), "exchange-share-%")
	}
}

// BenchmarkFig6Speedup regenerates Figs. 6a/6b: overall GPU-over-CPU
// speedups in the three GPU configurations.
func BenchmarkFig6Speedup(b *testing.B) {
	for _, tc := range []struct {
		name    string
		dataset string
		nodes   int
	}{
		{"a_16nodes_ecoli", "E. coli 30X", 4},
		{"b_64nodes_hsapien", "H. sapien 54X", 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			reads := datasetReads(b, tc.dataset, benchScale)
			cpuCfg := pipeline.Default(paperCPU(tc.nodes), pipeline.KmerMode)
			cpuCfg.CPULoadLift = 1e4
			kmerCfg := pipeline.Default(paperGPU(tc.nodes), pipeline.KmerMode)
			smCfg := pipeline.Default(paperGPU(tc.nodes), pipeline.SupermerMode)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cpuRes := mustRun(b, cpuCfg, reads)
				kmerRes := mustRun(b, kmerCfg, reads)
				smRes := mustRun(b, smCfg, reads)
				b.ReportMetric(cpuRes.Modeled.Total().Seconds()/kmerRes.Modeled.Total().Seconds(), "speedup-kmer")
				b.ReportMetric(cpuRes.Modeled.Total().Seconds()/smRes.Modeled.Total().Seconds(), "speedup-supermer")
			}
		})
	}
}

// BenchmarkFig7 regenerates Fig. 7: GPU k-mer vs supermer phase breakdown;
// reports the supermer exchange saving and the supermer counting overhead.
func BenchmarkFig7(b *testing.B) {
	reads := datasetReads(b, "C. elegans 40X", benchScale)
	kmerCfg := pipeline.Default(paperGPU(8), pipeline.KmerMode)
	smCfg := pipeline.Default(paperGPU(8), pipeline.SupermerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmerRes := mustRun(b, kmerCfg, reads)
		smRes := mustRun(b, smCfg, reads)
		b.ReportMetric(kmerRes.Modeled.Exchange.Seconds()/smRes.Modeled.Exchange.Seconds(), "exchange-saving")
		b.ReportMetric(smRes.Modeled.Count.Seconds()/kmerRes.Modeled.Count.Seconds(), "count-overhead")
	}
}

// BenchmarkFig8Alltoallv regenerates Fig. 8: the Alltoallv-only speedup of
// supermers (m=7 and m=9) over k-mers.
func BenchmarkFig8Alltoallv(b *testing.B) {
	reads := datasetReads(b, "V. vulnificus 30X", benchScale)
	kmerCfg := pipeline.Default(paperGPU(4), pipeline.KmerMode)
	sm7 := pipeline.Default(paperGPU(4), pipeline.SupermerMode)
	sm9 := pipeline.Default(paperGPU(4), pipeline.SupermerMode)
	sm9.M = 9
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmerRes := mustRun(b, kmerCfg, reads)
		b.ReportMetric(kmerRes.AlltoallvTime.Seconds()/mustRun(b, sm7, reads).AlltoallvTime.Seconds(), "speedup-m7")
		b.ReportMetric(kmerRes.AlltoallvTime.Seconds()/mustRun(b, sm9, reads).AlltoallvTime.Seconds(), "speedup-m9")
	}
}

// BenchmarkFig9Scaling regenerates Fig. 9: k-mer insertion rate at two node
// counts; reports the parallel efficiency of the step.
func BenchmarkFig9Scaling(b *testing.B) {
	reads := datasetReads(b, "C. elegans 40X", benchScale)
	small := pipeline.Default(paperGPU(4), pipeline.KmerMode)
	big := pipeline.Default(paperGPU(16), pipeline.KmerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rSmall := mustRun(b, small, reads)
		rBig := mustRun(b, big, reads)
		b.ReportMetric(rBig.InsertionRate()/rSmall.InsertionRate(), "rate-gain-4x-nodes")
	}
}

// BenchmarkTable2Volume regenerates Table II: items exchanged per mode.
func BenchmarkTable2Volume(b *testing.B) {
	reads := datasetReads(b, "E. coli 30X", benchScale)
	kmerCfg := pipeline.Default(paperGPU(4), pipeline.KmerMode)
	sm7 := pipeline.Default(paperGPU(4), pipeline.SupermerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmerRes := mustRun(b, kmerCfg, reads)
		smRes := mustRun(b, sm7, reads)
		b.ReportMetric(float64(kmerRes.ItemsExchanged)/float64(smRes.ItemsExchanged), "item-reduction")
		b.ReportMetric(float64(kmerRes.PayloadBytes)/float64(smRes.PayloadBytes), "byte-reduction")
	}
}

// BenchmarkTable3Imbalance regenerates Table III: the per-partition load
// imbalance of k-mer hashing vs minimizer partitioning.
func BenchmarkTable3Imbalance(b *testing.B) {
	reads := datasetReads(b, "H. sapien 54X", benchScale)
	kmerCfg := pipeline.Default(paperGPU(8), pipeline.KmerMode)
	smCfg := pipeline.Default(paperGPU(8), pipeline.SupermerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(mustRun(b, kmerCfg, reads).LoadImbalance(), "imbalance-kmer")
		b.ReportMetric(mustRun(b, smCfg, reads).LoadImbalance(), "imbalance-supermer")
	}
}

// BenchmarkOrderingAblation compares the three minimizer orderings'
// partition skew (DESIGN.md §5).
func BenchmarkOrderingAblation(b *testing.B) {
	reads := datasetReads(b, "C. elegans 40X", benchScale)
	for _, name := range []string{"value", "kmc2", "hashed"} {
		b.Run(name, func(b *testing.B) {
			ord, err := minimizer.ByName(name, &dna.Random)
			if err != nil {
				b.Fatal(err)
			}
			cfg := pipeline.Default(paperGPU(4), pipeline.SupermerMode)
			cfg.Ord = ord
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustRun(b, cfg, reads)
				b.ReportMetric(res.LoadImbalance(), "imbalance")
				b.ReportMetric(float64(res.ItemsExchanged), "supermers")
			}
		})
	}
}

// BenchmarkWindowAblation sweeps the supermer window (DESIGN.md §5):
// longer windows ship fewer bytes but cap at the sequential supermer length.
func BenchmarkWindowAblation(b *testing.B) {
	reads := datasetReads(b, "C. elegans 40X", benchScale)
	for _, w := range []int{7, 15, 31} {
		b.Run(map[int]string{7: "w7", 15: "w15", 31: "w31"}[w], func(b *testing.B) {
			cfg := pipeline.Default(paperGPU(4), pipeline.SupermerMode)
			cfg.Window = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := mustRun(b, cfg, reads)
				b.ReportMetric(float64(res.PayloadBytes), "payload-bytes")
			}
		})
	}
}

// BenchmarkGPUDirectAblation compares host-staged vs GPUDirect exchange
// (§III-B.2 supports both), both read off one run: the GPUDirect exchange
// is the staged one less its host staging legs.
func BenchmarkGPUDirectAblation(b *testing.B) {
	reads := datasetReads(b, "E. coli 30X", benchScale)
	cfg := pipeline.Default(paperGPU(4), pipeline.KmerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mustRun(b, cfg, reads)
		b.ReportMetric(res.Modeled.Exchange.Seconds()/(res.Modeled.Exchange-res.Staging).Seconds(), "staging-overhead")
	}
}

// BenchmarkExperimentHarness exercises one full experiment driver end to
// end at a tiny scale (the CLI path used for EXPERIMENTS.md).
func BenchmarkExperimentHarness(b *testing.B) {
	e, err := expt.ByID("table2")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(expt.Options{Out: discard{}, Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
