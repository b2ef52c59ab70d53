// Package expt contains one driver per table and figure of the paper's
// evaluation (§V). Each driver generates the scaled synthetic equivalent of
// the paper's dataset(s), runs the relevant pipeline configurations on the
// stock Summit layouts, and prints a table with the same rows/series the
// paper reports, every modeled time projected to the real dataset's size
// (pipeline.Result.AtScale), so comparisons are direct. RunConvergence
// checks that projection. EXPERIMENTS.md records paper-vs-measured for
// every driver.
package expt

import (
	"fmt"
	"io"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/pipeline"
)

// Options control an experiment run.
type Options struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Scale multiplies the registry's scaled dataset sizes (1.0 = default;
	// use 0.1 for a quick pass). It must be positive.
	Scale float64
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the CLI handle ("fig6a", "table2", ...).
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment and prints its report.
	Run func(o Options) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: datasets used for performance evaluation", RunTable1},
		{"fig3", "Fig. 3: runtime breakdown, CPU vs GPU k-mer counters, H. sapien 54X, 64 nodes", RunFig3},
		{"fig6a", "Fig. 6a: overall speedup over CPU baseline, 16 nodes (96 GPUs vs 672 cores)", RunFig6a},
		{"fig6b", "Fig. 6b: overall speedup over CPU baseline, 64 nodes (384 GPUs vs 2688 cores)", RunFig6b},
		{"fig7", "Fig. 7: GPU k-mer vs supermer runtime breakdown, 64 nodes (384 GPUs)", RunFig7},
		{"fig8", "Fig. 8: MPI_Alltoallv speedup using supermers vs k-mers", RunFig8},
		{"fig9", "Fig. 9: scalability of k-mer insertion rate, 4-128 nodes", RunFig9},
		{"table2", "Table II: k-mers and supermers exchanged per dataset", RunTable2},
		{"table3", "Table III: per-partition k-mer load imbalance (384 GPUs)", RunTable3},
		{"theory", "§IV-D: theoretical vs measured communication volume", RunTheory},
		{"balance", "§VII future work: frequency-balanced minimizer partitioning", RunBalance},
		{"ablation", "design-choice ablations: minimizer ordering and window size", RunAblation},
		{"whatif", "what-if projection: A100 GPUs and GPUDirect on the 64-node run", RunWhatIf},
		{"convergence", "projection check: headline ratios projected from ¼, ½ and 1 of the input", RunConvergence},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q (use -list)", id)
}

// input is a dataset's synthetic reads at one scale.
type input struct {
	genome.Dataset
	reads []fastq.Record
}

// loadDataset synthesizes a dataset's reads at the requested scale.
func loadDataset(d genome.Dataset, o Options) (input, error) {
	reads, err := d.Reads(o.scale())
	return input{d, reads}, err
}

// run counts the input under cfg and reprices the run at the dataset's
// real size (pipeline.Result.AtScale): the paper's figures come from inputs
// ≈10⁴ times the synthetic ones, and every modeled time the experiments print
// is read at that size.
func (in input) run(cfg pipeline.Config) (*pipeline.Result, pipeline.Projection, error) {
	res, err := pipeline.Run(cfg, in.reads)
	if err != nil {
		return nil, pipeline.Projection{}, err
	}
	return res, res.AtScale(in.RealBases()), nil
}

// gpuConfigs returns the three GPU configurations the figures compare:
// k-mer mode and supermer mode with m=7 and m=9.
func gpuConfigs(layout cluster.Layout) []struct {
	Label string
	Cfg   pipeline.Config
} {
	kmer := pipeline.Default(layout, pipeline.KmerMode)
	sm7 := pipeline.Default(layout, pipeline.SupermerMode)
	sm7.M = 7
	sm9 := pipeline.Default(layout, pipeline.SupermerMode)
	sm9.M = 9
	return []struct {
		Label string
		Cfg   pipeline.Config
	}{
		{"kmer", kmer},
		{"supermer (m=7)", sm7},
		{"supermer (m=9)", sm9},
	}
}

// bases sums the input's read lengths.
func (in input) bases() int {
	n := 0
	for _, r := range in.reads {
		n += len(r.Seq)
	}
	return n
}
