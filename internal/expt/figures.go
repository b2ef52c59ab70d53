package expt

import (
	"fmt"

	"dedukt/internal/cluster"
	"dedukt/internal/genome"
	"dedukt/internal/pipeline"
	"dedukt/internal/stats"
)

// RunTable1 prints the dataset inventory: the paper's rows plus the scaled
// synthetic stand-ins actually generated.
func RunTable1(o Options) error {
	t := stats.NewTable("Short Name", "Species and Strain", "Paper Fastq", "Scaled genome", "Coverage", "Synthetic bases")
	for _, d := range genome.Table1() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		t.Row(d.Name, d.Species,
			fmt.Sprintf("%d MB", d.RealFastqMB),
			stats.Count(uint64(float64(d.ScaledGenomeLen)*o.scale())),
			fmt.Sprintf("%.0fX", d.Coverage),
			stats.Count(uint64(in.bases())))
	}
	fmt.Fprintln(o.Out, "Table I — datasets (paper inputs and scaled synthetic equivalents)")
	fmt.Fprint(o.Out, t)
	return nil
}

// RunFig3 reproduces the Fig. 3 breakdown: the CPU baseline on 64 nodes
// (2688 cores) against the GPU k-mer counter on 64 nodes (384 GPUs) for
// H. sapien 54X, reporting the three-module split and the compute speedup.
func RunFig3(o Options) error {
	d, err := genome.DatasetByName("H. sapien 54X")
	if err != nil {
		return err
	}
	in, err := loadDataset(d, o)
	if err != nil {
		return err
	}
	_, cpu, err := in.run(pipeline.Default(cluster.SummitCPU(64), pipeline.KmerMode))
	if err != nil {
		return err
	}
	_, gpu, err := in.run(pipeline.Default(cluster.SummitGPU(64), pipeline.KmerMode))
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "Fig. 3 — runtime breakdown on 64 nodes, %s (%s bases at scale %.2f, projected to %s)\n",
		d.Name, stats.Count(uint64(in.bases())), o.scale(), stats.Count(uint64(d.RealBases())))
	t := stats.NewTable("module", "CPU 2688 cores", "GPU 384 GPUs", "speedup")
	t.Row("parse & process kmers", cpu.Modeled.Parse, gpu.Modeled.Parse,
		stats.Speedup(cpu.Modeled.Parse, gpu.Modeled.Parse))
	t.Row("exchange (incl. MPI call)", cpu.Modeled.Exchange, gpu.Modeled.Exchange,
		stats.Speedup(cpu.Modeled.Exchange, gpu.Modeled.Exchange))
	t.Row("kmer counter", cpu.Modeled.Count, gpu.Modeled.Count,
		stats.Speedup(cpu.Modeled.Count, gpu.Modeled.Count))
	t.Row("total (excl. I/O)", cpu.Modeled.Total(), gpu.Modeled.Total(),
		stats.Speedup(cpu.Modeled.Total(), gpu.Modeled.Total()))
	fmt.Fprint(o.Out, t)
	computeCPU := cpu.Modeled.Parse + cpu.Modeled.Count
	computeGPU := gpu.Modeled.Parse + gpu.Modeled.Count
	fmt.Fprintf(o.Out, "compute-only acceleration: %.0f× (paper: ~100×)\n",
		stats.Speedup(computeCPU, computeGPU))
	fmt.Fprintf(o.Out, "exchange share of GPU total: %.0f%% (paper: up to 80%%)\n",
		100*gpu.Modeled.Exchange.Seconds()/gpu.Modeled.Total().Seconds())
	return nil
}

// fig6Runs runs the input on the CPU baseline and on the three GPU
// configurations (gpuConfigs) at equal node count, and returns each run
// projected to the dataset's real size.
func fig6Runs(in input, nodes int) (cpu pipeline.Projection, gpu [3]pipeline.Projection, err error) {
	if _, cpu, err = in.run(pipeline.Default(cluster.SummitCPU(nodes), pipeline.KmerMode)); err != nil {
		return cpu, gpu, err
	}
	for i, gc := range gpuConfigs(cluster.SummitGPU(nodes)) {
		if _, gpu[i], err = in.run(gc.Cfg); err != nil {
			return cpu, gpu, err
		}
	}
	return cpu, gpu, nil
}

// speedup is a's modeled total over b's.
func speedup(a, b pipeline.Projection) float64 {
	return stats.Speedup(a.Modeled.Total(), b.Modeled.Total())
}

// runFig6 is the common driver of Figs. 6a and 6b: overall speedup of the
// three GPU configurations over the CPU baseline at equal node count.
func runFig6(o Options, nodes int, datasets []genome.Dataset, caption string) error {
	fmt.Fprintf(o.Out, "%s (scale %.2f, projected to the paper's inputs)\n", caption, o.scale())
	t := stats.NewTable("dataset", "CPU total", "kmer", "supermer (m=7)", "supermer (m=9)")
	for _, d := range datasets {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		cpu, gpu, err := fig6Runs(in, nodes)
		if err != nil {
			return err
		}
		row := []any{d.Name, cpu.Modeled.Total()}
		for _, g := range gpu {
			row = append(row, fmt.Sprintf("%.1f×", speedup(cpu, g)))
		}
		t.Row(row...)
	}
	fmt.Fprint(o.Out, t)
	return nil
}

// RunFig6a reproduces Fig. 6a: the four small datasets on 16 nodes (96 GPUs
// vs 672 cores). Paper: ~11× (kmer) and ~13× (supermer) average speedup.
func RunFig6a(o Options) error {
	return runFig6(o, 16, genome.SmallDatasets(),
		"Fig. 6a — speedup over CPU baseline, 16 nodes (96 GPUs vs 672 cores)")
}

// RunFig6b reproduces Fig. 6b: C. elegans 40X and H. sapien 54X on 64 nodes
// (384 GPUs vs 2688 cores). Paper: up to 150× for H. sapiens supermers.
func RunFig6b(o Options) error {
	return runFig6(o, 64, genome.LargeDatasets(),
		"Fig. 6b — speedup over CPU baseline, 64 nodes (384 GPUs vs 2688 cores)")
}

// RunFig7 reproduces Figs. 7a/7b: the three-module breakdown of the GPU
// pipelines (kmer, supermer m=7, supermer m=9) on 64 nodes for the two
// large datasets. Paper: supermers add ~33% parse and ~27% count but save
// ~33% exchange, a net win because exchange is up to 80% of the total.
func RunFig7(o Options) error {
	for _, d := range genome.LargeDatasets() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "Fig. 7 — GPU runtime breakdown, 64 nodes (384 GPUs), %s (scale %.2f, projected to the paper's input)\n", d.Name, o.scale())
		t := stats.NewTable("module", "kmer", "supermer (m=7)", "supermer (m=9)")
		var rows [3][]any
		rows[0] = []any{"parse & process kmers"}
		rows[1] = []any{"exchange (incl. MPI_alltoallv)"}
		rows[2] = []any{"kmer counter"}
		totals := []any{"total"}
		for _, gc := range gpuConfigs(cluster.SummitGPU(64)) {
			_, p, err := in.run(gc.Cfg)
			if err != nil {
				return err
			}
			rows[0] = append(rows[0], p.Modeled.Parse)
			rows[1] = append(rows[1], p.Modeled.Exchange)
			rows[2] = append(rows[2], p.Modeled.Count)
			totals = append(totals, p.Modeled.Total())
		}
		for _, r := range rows {
			t.Row(r...)
		}
		t.Row(totals...)
		fmt.Fprint(o.Out, t)
	}
	return nil
}

// runFig8 reports the Alltoallv-only speedup of the two supermer
// configurations over k-mer mode.
func runFig8(o Options, nodes int, datasets []genome.Dataset, caption string) error {
	fmt.Fprintf(o.Out, "%s (scale %.2f, projected to the paper's inputs)\n", caption, o.scale())
	t := stats.NewTable("dataset", "alltoallv kmer", "speedup m=7", "speedup m=9")
	for _, d := range datasets {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		var times []any
		var kmerT float64
		for i, gc := range gpuConfigs(cluster.SummitGPU(nodes)) {
			_, p, err := in.run(gc.Cfg)
			if err != nil {
				return err
			}
			sec := p.AlltoallvTime.Seconds()
			if i == 0 {
				kmerT = sec
				times = append(times, p.AlltoallvTime)
			} else {
				times = append(times, fmt.Sprintf("%.2f×", kmerT/sec))
			}
		}
		t.Row(append([]any{d.Name}, times...)...)
	}
	fmt.Fprint(o.Out, t)
	return nil
}

// RunFig8 reproduces Figs. 8a (16 nodes, small datasets) and 8b (64 nodes,
// large datasets). Paper: up to 3× Alltoallv speedup on H. sapiens.
func RunFig8(o Options) error {
	if err := runFig8(o, 16, genome.SmallDatasets(),
		"Fig. 8a — Alltoallv speedup of supermers vs k-mers, 16 nodes (96 GPUs)"); err != nil {
		return err
	}
	return runFig8(o, 64, genome.LargeDatasets(),
		"Fig. 8b — Alltoallv speedup of supermers vs k-mers, 64 nodes (384 GPUs)")
}

// RunFig9 reproduces Fig. 9: scalability of the GPU computation kernels
// (k-mer insertion rate, exchange excluded) from 4 to 128 nodes. Small
// datasets stop at 32 nodes, as in the paper.
func RunFig9(o Options) error {
	fmt.Fprintf(o.Out, "Fig. 9 — k-mer insertion rate (kmers/s of kernel time, excl. exchange; scale %.2f, projected to the paper's inputs)\n", o.scale())
	nodeCounts := []int{4, 16, 32, 64, 128}
	t := stats.NewTable("dataset", "4", "16", "32", "64", "128")
	for _, d := range genome.Table1() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		row := []any{d.Name}
		for _, nodes := range nodeCounts {
			if !d.Large && nodes > 32 {
				row = append(row, "-")
				continue
			}
			res, p, err := in.run(pipeline.Default(cluster.SummitGPU(nodes), pipeline.KmerMode))
			if err != nil {
				return err
			}
			rate := float64(res.TotalKmers) * p.Scale / (p.Modeled.Parse + p.Modeled.Count).Seconds()
			row = append(row, stats.Count(uint64(rate))+"/s")
		}
		t.Row(row...)
	}
	fmt.Fprint(o.Out, t)
	fmt.Fprintln(o.Out, "paper: near-linear scaling; C. elegans and H. sapiens gain 2.3× from 64 to 128 nodes")
	return nil
}
