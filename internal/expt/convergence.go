package expt

import (
	"fmt"
	"math"

	"dedukt/internal/cluster"
	"dedukt/internal/genome"
	"dedukt/internal/pipeline"
	"dedukt/internal/stats"
)

// RunConvergence checks the projection every experiment reads its
// modeled times through (pipeline.Result.AtScale). It computes the
// headline ratios at ¼, ½ and 1 of the input, each run projected to the
// paper's input, and prints how far each ratio moves per doubling of the
// input. Where the
// projection holds, a ratio's drift shrinks as the input grows; a ratio
// whose drift does not shrink depends on the simulated scale and is marked
// so. Table III's imbalance is measured, not projected: it is here because
// the synthetic genomes grow with the input too.
func RunConvergence(o Options) error {
	hs, err := genome.DatasetByName("H. sapien 54X")
	if err != nil {
		return err
	}
	ce, err := genome.DatasetByName("C. elegans 40X")
	if err != nil {
		return err
	}
	names := []string{
		"Fig. 6a mean speedup, kmer",
		"Fig. 6a mean speedup, supermer (m=7)",
		"Fig. 6b H. sapiens speedup, kmer",
		"Fig. 6b H. sapiens speedup, supermer (m=9)",
		"Fig. 8b H. sapiens Alltoallv speedup (m=7)",
		"Table III C. elegans supermer imbalance",
	}
	fractions := []float64{0.25, 0.5, 1}
	at := make([][]float64, len(fractions)) // at[i][j]: ratio j at fractions[i]
	for i, f := range fractions {
		so := Options{Scale: f * o.scale()}
		var r [6]float64
		small := genome.SmallDatasets()
		for _, d := range small {
			in, err := loadDataset(d, so)
			if err != nil {
				return err
			}
			cpu, gpu, err := fig6Runs(in, 16)
			if err != nil {
				return err
			}
			r[0] += speedup(cpu, gpu[0]) / float64(len(small))
			r[1] += speedup(cpu, gpu[1]) / float64(len(small))
		}
		in, err := loadDataset(hs, so)
		if err != nil {
			return err
		}
		cpu, gpu, err := fig6Runs(in, 64)
		if err != nil {
			return err
		}
		r[2], r[3] = speedup(cpu, gpu[0]), speedup(cpu, gpu[2])
		r[4] = gpu[0].AlltoallvTime.Seconds() / gpu[1].AlltoallvTime.Seconds()
		if in, err = loadDataset(ce, so); err != nil {
			return err
		}
		cfg := pipeline.Default(cluster.SummitGPU(64), pipeline.SupermerMode)
		cfg.M = 7
		res, _, err := in.run(cfg)
		if err != nil {
			return err
		}
		r[5] = res.LoadImbalance()
		at[i] = r[:]
	}

	fmt.Fprintf(o.Out, "Convergence — headline ratios at ¼, ½ and 1 of scale %.2f, each projected to the paper's input\n", o.scale())
	t := stats.NewTable("ratio", "¼", "½", "1", "drift ¼→½", "drift ½→1", "")
	for j, name := range names {
		d1 := drift(at[0][j], at[1][j])
		d2 := drift(at[1][j], at[2][j])
		verdict := "converging"
		if d2 >= d1 {
			verdict = "scale-dependent"
		}
		t.Row(name, fmt.Sprintf("%.2f", at[0][j]), fmt.Sprintf("%.2f", at[1][j]), fmt.Sprintf("%.2f", at[2][j]),
			fmt.Sprintf("%.1f%%", 100*d1), fmt.Sprintf("%.1f%%", 100*d2), verdict)
	}
	fmt.Fprint(o.Out, t)
	fmt.Fprintln(o.Out, "drift: |change| over the larger input's value, per doubling of the input")
	return nil
}

// drift is how far a ratio moved from prev to next, relative to next.
func drift(prev, next float64) float64 {
	return math.Abs(next-prev) / next
}
