package pipeline

import (
	"io"
	"testing"

	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/obs"
)

// benchReads generates the shared benchmark read set once.
func benchReads(b *testing.B) []fastq.Record {
	b.Helper()
	g, err := genome.Generate("bench", genome.Config{
		Length: 20_000, RepeatFraction: 0.2,
		RepeatMinLen: 100, RepeatMaxLen: 400, GC: 0.5, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	prof := genome.DefaultLongReads()
	prof.MeanLen = 800
	prof.AmbigRate = 0.002
	reads, err := genome.SimulateReads(g, 8, prof)
	if err != nil {
		b.Fatal(err)
	}
	return reads
}

func benchRun(b *testing.B, rec *obs.Recorder) {
	reads := benchReads(b)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Obs = rec
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, reads)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LoadImbalance(), "imbalance")
	}
}

// BenchmarkPipelineSupermer is the nil-recorder baseline the observability
// overhead budget is measured against (instrumented call sites present,
// recording off).
func BenchmarkPipelineSupermer(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkPipelineTraced runs the same pipeline with a live recorder and
// trace export, bounding the cost of turning observability on.
func BenchmarkPipelineTraced(b *testing.B) {
	rec := obs.NewRecorder(smallGPULayout(1).Ranks())
	benchRun(b, rec)
	b.StopTimer()
	if err := rec.WriteTrace(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineKmer is the k-mer-mode counterpart of
// BenchmarkPipelineSupermer: whole-word exchange, no supermer packing.
func BenchmarkPipelineKmer(b *testing.B) {
	reads := benchReads(b)
	cfg := Default(smallGPULayout(1), KmerMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, reads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineCPUKmer and BenchmarkPipelineCPUSupermer are the CPU
// engine's rows beside the GPU-layout ones above: the scalar kernels over
// kcount.Table, where the table loop is the run. Supermer mode decodes each
// arrival it has to size the table for twice.
func BenchmarkPipelineCPUKmer(b *testing.B)     { benchRunCPU(b, KmerMode) }
func BenchmarkPipelineCPUSupermer(b *testing.B) { benchRunCPU(b, SupermerMode) }

func benchRunCPU(b *testing.B, mode Mode) {
	reads := benchReads(b)
	cfg := Default(smallCPULayout(), mode)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, reads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineStream measures the streaming ingestion path: the
// shared bounded producer feeding multi-round pulls, against the same
// dataset BenchmarkPipelineSupermer preloads. The delta against that
// baseline is the out-of-core overhead (producer locking, per-chunk
// copies, open-ended round agreement).
func BenchmarkPipelineStream(b *testing.B) {
	reads := benchReads(b)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 3_000) // ~10 rounds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunStream(cfg, fastq.NewSliceSource(reads))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds < 2 {
			b.Fatal("want a multi-round streamed run")
		}
		b.ReportMetric(float64(res.Rounds), "rounds")
	}
}

// BenchmarkPipelineOverlap prices one multi-round, two-node run both ways:
// bulk-synchronous (modeled-serial-ms) and under the max(compute, exchange)
// overlap rule (modeled-overlap-ms). Config.Overlap selects only which of
// the two Result.ModeledTotal reports — the rounds execute the same either
// way — so ns/op is the host cost of the one schedule.
func BenchmarkPipelineOverlap(b *testing.B) {
	reads := benchReads(b)
	cfg := Default(smallGPULayout(2), SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 3_000) // ~10 rounds at this input size
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, reads)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds < 2 {
			b.Fatal("want a multi-round run")
		}
		b.ReportMetric(float64(res.ModeledTotal().Microseconds())/1e3, "modeled-serial-ms")
		res.Overlap = true
		b.ReportMetric(float64(res.ModeledTotal().Microseconds())/1e3, "modeled-overlap-ms")
	}
}
