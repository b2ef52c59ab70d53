package pipeline

import (
	"io"
	"testing"
	"time"

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
	cfg.MemBudgetBytes = int64(cfg.Layout.Ranks() * streamBytesPerBase * 3_000) // ~10 rounds
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

// BenchmarkPipelineOverlap compares the bulk-synchronous schedule against
// the overlapped one on a multi-round, two-node run with an emulated wire
// (the simulator's collectives are otherwise free in wall terms, which is
// exactly the cost §V says dominates). Serial ranks sit in the blocking
// Alltoallv for the wire time every round; overlapped ranks post it and
// parse the next round while it drains. The hier row overlaps the same
// rounds with the hierarchical strategy, which also shrinks the wire cost
// itself (fewer, node-credited fabric messages).
func BenchmarkPipelineOverlap(b *testing.B) {
	reads := benchReads(b)
	for _, mode := range []struct {
		name    string
		overlap bool
		exch    Exchange
	}{
		{"serial", false, ExchangeFlat},
		{"overlap", true, ExchangeFlat},
		{"overlap-hier", true, ExchangeHier},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Default(smallGPULayout(2), SupermerMode)
			cfg.RoundBases = 3_000 // ~10 rounds at this input size
			cfg.Overlap = mode.overlap
			cfg.Exchange = mode.exch
			benchWire(&cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, reads)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds < 2 {
					b.Fatal("want a multi-round run")
				}
			}
		})
	}
}

// benchWire installs the emulated wall-clock wire the exchange benchmarks
// share: a per-message software/latency floor plus a bandwidth term, with
// intra-node traffic credited (Layout.Net.RanksPerNode is already the node
// width). The per-message floor is what the hierarchical exchange attacks:
// a 12-rank two-node world pays 6 off-node messages per rank per flat
// round, but only 1 per leader per hier round.
func benchWire(cfg *Config) {
	cfg.WireTime = func(sent int) time.Duration {
		return time.Duration(sent) * 10 * time.Nanosecond
	}
	cfg.WireMsg = func(msgs int) time.Duration {
		return time.Duration(msgs) * 750 * time.Microsecond
	}
}

// BenchmarkPipelineHier races the flat P×P exchange against the two-stage
// hierarchical one on a two-node world under the emulated wire. The flat
// row pays the per-message floor for every off-node destination every
// round; the hier row gathers on node leaders first, so only the L×L
// leader exchange touches the fabric.
func BenchmarkPipelineHier(b *testing.B) {
	reads := benchReads(b)
	for _, mode := range []struct {
		name string
		exch Exchange
	}{{"flat", ExchangeFlat}, {"hier", ExchangeHier}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Default(smallGPULayout(2), SupermerMode)
			cfg.RoundBases = 3_000
			cfg.Exchange = mode.exch
			benchWire(&cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, reads)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds < 2 {
					b.Fatal("want a multi-round run")
				}
			}
		})
	}
}
