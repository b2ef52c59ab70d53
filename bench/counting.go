package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/obs"
	"dedukt/internal/pipeline"
)

// nodes is the simulated machine of every workload: 2 Summit nodes, 12
// ranks.
const nodes = 2

// cpuLayout is cluster.SummitCPU cut to 6 ranks per node, so the CPU and
// GPU workloads run the same 12-rank world.
func cpuLayout() cluster.Layout {
	l := cluster.SummitCPU(nodes)
	l.RanksPerNode = 6
	l.Net.RanksPerNode = 6
	return l
}

// countingConfig returns the pipeline configuration of a counting workload.
func countingConfig(name string, bases uint64) (pipeline.Config, error) {
	switch name {
	case "gpu-supermer-lr8":
		return pipeline.Default(cluster.SummitGPU(nodes), pipeline.SupermerMode), nil
	case "gpu-kmer-lr8":
		return pipeline.Default(cluster.SummitGPU(nodes), pipeline.KmerMode), nil
	case "cpu-kmer-lr8":
		return pipeline.Default(cpuLayout(), pipeline.KmerMode), nil
	case "ooc-spill-hs54":
		cfg := pipeline.Default(cluster.SummitGPU(nodes), pipeline.SupermerMode)
		cfg.Exchange = pipeline.ExchangeHier
		cfg.Overlap = true
		// 48 is pipeline's modeled live bytes per staged base: a budget of
		// bases*48/14 makes each rank's round chunk 1/14 of its share, which
		// the chunk producer's read granularity turns into 12-16 rounds.
		cfg.MemBudgetBytes = int64(bases) * 48 / 14
		return cfg, nil
	}
	return pipeline.Config{}, fmt.Errorf("no counting configuration for %q", name)
}

// prepareCounting is a counting workload's set-up: it generates the
// dataset, counts it with the serial oracle and writes the reads for the
// child.
func prepareCounting(spec workloadSpec, opt options, tr *tracer, workDir string) (*manifest, error) {
	end := tr.span("setup.generate")
	ds, err := generate(spec.Dataset, opt.seed, opt.scale())
	end()
	if err != nil {
		return nil, err
	}
	m := &manifest{Dataset: ds.name, Reads: len(ds.reads), Bases: ds.bases}
	end = tr.span("setup.oracle")
	m.Oracle = countOracle(ds.reads)
	end()
	end = tr.span("setup.write_reads")
	m.ReadFiles, err = ds.writeReads(workDir, spec.Streamed)
	end()
	return m, err
}

// countingState is what the child measures with: the reads set-up wrote
// (in memory, or as the files to stream), the oracle and the configuration.
type countingState struct {
	streamed bool           // count from files with RunStream, spilling to workDir
	reads    []fastq.Record // nil for a streamed workload
	files    []string
	bases    uint64
	oracle   *oracleSummary
	cfg      pipeline.Config
	workDir  string
}

func loadCounting(spec workloadSpec, m *manifest, workDir string) (*countingState, error) {
	cfg, err := countingConfig(spec.Name, m.Bases)
	if err != nil {
		return nil, err
	}
	if m.Oracle == nil {
		return nil, fmt.Errorf("manifest carries no oracle")
	}
	st := &countingState{streamed: spec.Streamed, files: m.ReadFiles, bases: m.Bases, oracle: m.Oracle, cfg: cfg, workDir: workDir}
	if !st.streamed {
		if st.reads, err = loadReads(m.ReadFiles); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// rep is one measured repetition.
type rep struct {
	wall    float64 // seconds
	cpu     float64 // user+sys seconds
	mallocs uint64
	allocB  uint64
	res     *pipeline.Result
	err     error // run error or oracle mismatch
}

// runOnce executes one full count. rec enables the pipeline's own spans.
func (st *countingState) runOnce(cfg pipeline.Config, rec *obs.Recorder) rep {
	cfg.Obs = rec
	if st.streamed {
		spillDir, err := os.MkdirTemp(st.workDir, "spill")
		if err != nil {
			return rep{err: err}
		}
		defer os.RemoveAll(spillDir)
		cfg.Spill = pipeline.SpillConfig{Dir: spillDir, Bins: 16}
	}
	// Like testing.B before each benchmark run: start every repetition from
	// a collected heap. Without it one repetition's garbage decides where
	// the collector lands in the next, and walls of 2.1 s and 4.8 s alternate
	// inside one process while peak RSS swings between 1.7 and 2.6 GB.
	runtime.GC()
	m0, b0 := memCounters()
	c0 := cpuSeconds()
	t0 := time.Now()
	var r rep
	if st.streamed {
		var src *fastq.Stream
		if src, r.err = fastq.OpenStream(st.files...); r.err == nil {
			r.res, r.err = pipeline.RunStream(cfg, src)
			src.Close()
		}
	} else {
		r.res, r.err = pipeline.Run(cfg, st.reads)
	}
	r.wall = time.Since(t0).Seconds()
	r.cpu = cpuSeconds() - c0
	m1, b1 := memCounters()
	r.mallocs, r.allocB = m1-m0, b1-b0
	if r.err == nil {
		r.err = st.oracle.check(r.res)
	}
	return r
}

// check fails a repetition unless Histogram, TotalKmers, DistinctKmers and
// TopKmers equal the serial oracle's and the run is complete.
func (o *oracleSummary) check(res *pipeline.Result) error {
	switch {
	case res.Incomplete:
		return fmt.Errorf("result is incomplete")
	case res.TotalKmers != o.Total:
		return fmt.Errorf("total k-mers %d, oracle %d", res.TotalKmers, o.Total)
	case res.DistinctKmers != o.Distinct:
		return fmt.Errorf("distinct k-mers %d, oracle %d", res.DistinctKmers, o.Distinct)
	case !reflect.DeepEqual(res.Histogram.Counts, o.Hist):
		return fmt.Errorf("histogram differs from the oracle's")
	case !reflect.DeepEqual(res.TopKmers, o.Top):
		return fmt.Errorf("top-%d k-mers differ from the oracle's", topN)
	}
	return nil
}

// runCounting is the measured part of a counting workload, in the child.
func runCounting(spec workloadSpec, m *manifest, opt options, tr *tracer, out *outcome, workDir string) error {
	end := tr.span("load")
	t0 := time.Now()
	st, err := loadCounting(spec, m, workDir)
	out.set("setup_s", time.Since(t0).Seconds())
	end()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}

	var warm []float64
	for i := 0; i < opt.warmups(); i++ {
		end := tr.span(fmt.Sprintf("warmup#%d", i))
		r := st.runOnce(st.cfg, nil)
		end()
		if r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
		warm = append(warm, r.wall)
	}

	// Timed, untraced repetitions: the only source of end-to-end numbers. A
	// traced run spends half its window here and the rest on traced
	// repetitions and probes.
	window := opt.seconds
	if opt.trace {
		window /= 2
	}
	var reps []rep
	start := time.Now()
	for len(reps) < opt.minReps() || (!opt.quick && time.Since(start).Seconds() < window) {
		end := tr.span(fmt.Sprintf("rep#%d", len(reps)))
		r := st.runOnce(st.cfg, nil)
		end()
		out.attempt(r.err)
		reps = append(reps, r)
	}
	last := lastGood(reps)
	if last == nil {
		return fmt.Errorf("no repetition succeeded: %v", reps[0].err)
	}

	walls := collect(reps, func(r rep) float64 { return r.wall })
	wall := median(walls)
	out.noteSamples("wall_s", walls)
	out.notes = append(out.notes, fmt.Sprintf("wall_s per repetition: %.3f after warm-ups %.3f", walls, warm))
	gbases := float64(st.bases) / 1e9
	out.set("pipeline.mbases_per_s", gbases*1e3/wall)
	out.set("pipeline.cpu_s_per_gbase", median(collect(reps, func(r rep) float64 { return r.cpu }))/gbases)
	out.set("peak_rss_mb", peakRSSMB())
	out.set("pipeline.peak_rss_mb", out.metrics["peak_rss_mb"])
	resultLayers(out, last)
	out.set("pipeline.allocs_per_run", median(collect(reps, func(r rep) float64 { return float64(r.mallocs) })))
	out.set("pipeline.alloc_mb_per_run", median(collect(reps, func(r rep) float64 { return float64(r.allocB) / 1e6 })))
	if !opt.trace {
		return nil
	}

	// Traced repetitions: the pipeline records its own spans.
	var tracedWalls []float64
	shares := map[string][]float64{}
	ranks := st.cfg.Layout.Ranks()
	for i := 0; i < opt.tracedReps(); i++ {
		rec := obs.NewRecorder(ranks)
		end := tr.span(fmt.Sprintf("traced#%d", i))
		r := st.runOnce(st.cfg, rec)
		end()
		out.attempt(r.err)
		if r.err != nil {
			continue
		}
		tr.capture(fmt.Sprintf("pipeline traced#%d", i), rec)
		tracedWalls = append(tracedWalls, r.wall)
		spans := rec.Spans()
		for phase, share := range wallShares(spans, ranks, r.wall) {
			shares[phase] = append(shares[phase], share)
		}
		out.set("obs.spans_per_run", float64(len(spans)))
		spanRates(out, spans, r.res)
	}
	if len(tracedWalls) > 0 {
		out.set("obs.trace_overhead_pct", 100*(median(tracedWalls)/wall-1))
		// Each repetition's shares sum to 1; so do their means.
		for phase, xs := range shares {
			var sum float64
			for _, x := range xs {
				sum += x
			}
			out.set("pipeline."+phase+"_wall_share", sum/float64(len(xs)))
		}
	}

	// The probes work on the reads themselves: a streamed workload loads
	// them only now, after its peak RSS was taken.
	reads := st.reads
	if st.streamed {
		if reads, err = loadReads(st.files); err != nil {
			return err
		}
	}
	if spec.Name == "gpu-kmer-lr8" {
		end := tr.span("probe.gpusim.engine_overhead")
		err := engineOverhead(out, st, opt, wall)
		end()
		if err != nil {
			return err
		}
	}
	return runProbes(spec, opt, tr, out, reads, st.files)
}

func lastGood(reps []rep) *pipeline.Result {
	for i := len(reps) - 1; i >= 0; i-- {
		if reps[i].err == nil {
			return reps[i].res
		}
	}
	return nil
}

// collect maps f over the repetitions that succeeded.
func collect(reps []rep, f func(rep) float64) []float64 {
	var xs []float64
	for _, r := range reps {
		if r.err == nil {
			xs = append(xs, f(r))
		}
	}
	return xs
}

// resultLayers reads the exact-count layer metrics off a Result: the
// paper's clock and its Table II and III rows, and what they are made of.
func resultLayers(out *outcome, res *pipeline.Result) {
	kmers := float64(res.TotalKmers)
	out.set("pipeline.modeled_total_s", res.ModeledTotal().Seconds())
	out.set("pipeline.payload_bytes_per_kmer", float64(res.PayloadBytes)/kmers)
	out.set("pipeline.load_imbalance", res.LoadImbalance())
	out.set("pipeline.modeled_parse_s", res.Modeled.Parse.Seconds())
	out.set("pipeline.modeled_exchange_s", res.Modeled.Exchange.Seconds())
	out.set("pipeline.modeled_count_s", res.Modeled.Count.Seconds())
	out.set("pipeline.alltoallv_modeled_s", res.AlltoallvTime.Seconds())
	out.set("pipeline.rounds", float64(res.Rounds))
	out.set("pipeline.items_exchanged", float64(res.ItemsExchanged))
	out.set("pipeline.payload_bytes", float64(res.PayloadBytes))
	if !res.GPU {
		return
	}
	out.set("gpusim.parse_transactions_per_kmer", float64(res.GPUParse.MemTransactions)/kmers)
	out.set("gpusim.count_transactions_per_kmer", float64(res.GPUCount.MemTransactions)/kmers)
	out.set("gpusim.count_atomics_per_kmer", float64(res.GPUCount.AtomicOps)/kmers)
	all := res.GPUParse
	all.Add(res.GPUCount)
	out.set("gpusim.divergence_waste", all.DivergenceWaste())
}

// phaseBucket folds the recorder's phases into the seven wall-share rows:
// the hierarchical stages and retries are part of the exchange.
func phaseBucket(phase string) string {
	switch phase {
	case obs.PhaseParse, obs.PhaseStageH2D, obs.PhaseExchange, obs.PhaseCount, obs.PhaseSpill, obs.PhaseBinCount:
		return phase
	case obs.PhaseGather, obs.PhaseLeader, obs.PhaseScatter, obs.PhaseRetry:
		return obs.PhaseExchange
	}
	return "other"
}

// wallShares attributes every instant of every rank's timeline to one
// bucket and returns each bucket's share of ranks x wall; the shares sum to
// 1. Where spans nest or overlap (an overlapped exchange stays open while
// the next round parses) the instant belongs to the span that started last,
// which is the guide's self-time rule. Time outside every span is "other".
func wallShares(spans []obs.Span, ranks int, wall float64) map[string]float64 {
	shares := map[string]float64{}
	for _, b := range []string{obs.PhaseParse, obs.PhaseStageH2D, obs.PhaseExchange, obs.PhaseCount, obs.PhaseSpill, obs.PhaseBinCount} {
		shares[b] = 0
	}
	byRank := make([][]obs.Span, ranks)
	for _, s := range spans {
		if s.Rank >= 0 && s.Rank < ranks {
			byRank[s.Rank] = append(byRank[s.Rank], s)
		}
	}
	total := float64(ranks) * wall
	var covered float64
	for _, rs := range byRank {
		cuts := make([]time.Duration, 0, 2*len(rs))
		for _, s := range rs {
			cuts = append(cuts, s.Start, s.Start+s.Dur)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if hi == lo {
				continue
			}
			var owner *obs.Span
			for j := range rs {
				s := &rs[j]
				if s.Start <= lo && s.Start+s.Dur >= hi && (owner == nil || s.Start >= owner.Start) {
					owner = s
				}
			}
			if owner == nil {
				continue
			}
			d := (hi - lo).Seconds()
			shares[phaseBucket(owner.Phase)] += d / total
			covered += d
		}
	}
	shares["other"] += 1 - covered/total
	return shares
}

// spanRates derives the two out-of-core rates from the spans of one traced
// repetition: items over the rank time spent inside the phase.
func spanRates(out *outcome, spans []obs.Span, res *pipeline.Result) {
	var spillItems uint64
	var spillSec, binSec float64
	for _, s := range spans {
		switch s.Phase {
		case obs.PhaseSpill:
			spillItems += s.Items
			spillSec += s.Dur.Seconds()
		case obs.PhaseBinCount:
			binSec += s.Dur.Seconds()
		}
	}
	if spillSec > 0 {
		out.set("pipeline.spill_write_mb_per_s", float64(spillItems)*float64(supermerWire.Stride())/1e6/spillSec)
	}
	if binSec > 0 {
		out.set("pipeline.bin_count_mkmers_per_s", float64(res.TotalKmers)/1e6/binSec)
	}
}

// engineOverhead times the same k-mer-mode count on the CPU engine and
// reports the GPU engine's wall as a multiple of it: the time spent in
// gpusim accounting rather than in counting.
func engineOverhead(out *outcome, st *countingState, opt options, gpuWall float64) error {
	cfg, err := countingConfig("cpu-kmer-lr8", st.bases)
	if err != nil {
		return err
	}
	var walls []float64
	for i := 0; i < opt.minReps()+1; i++ {
		r := st.runOnce(cfg, nil)
		if r.err != nil {
			return fmt.Errorf("cpu-engine control: %w", r.err)
		}
		if i > 0 || opt.quick { // the first repetition warms the CPU path
			walls = append(walls, r.wall)
		}
	}
	out.set("gpusim.engine_overhead_x", gpuWall/median(walls))
	return nil
}
