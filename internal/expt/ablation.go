package expt

import (
	"fmt"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/genome"
	"dedukt/internal/minimizer"
	"dedukt/internal/pipeline"
	"dedukt/internal/stats"
)

// RunAblation sweeps the design choices DESIGN.md §5 calls out — minimizer
// ordering and window size — on C. elegans 40X at 16 nodes, reporting the
// supermer count, exchanged payload, partition imbalance and end-to-end
// time each choice produces. The paper fixes ordering=random-encoding value
// and window=15; this table shows why those are good defaults.
func RunAblation(o Options) error {
	d, err := genome.DatasetByName("C. elegans 40X")
	if err != nil {
		return err
	}
	in, err := loadDataset(d, o)
	if err != nil {
		return err
	}
	layout := cluster.SummitGPU(16)

	fmt.Fprintf(o.Out, "Ablation — minimizer ordering (k=17, m=7, window=15, %s, scale %.2f, times projected to the paper's input)\n", d.Name, o.scale())
	t := stats.NewTable("ordering", "supermers", "payload", "imbalance", "total time")
	for _, name := range []string{"value", "kmc2", "hashed"} {
		ord, err := minimizer.ByName(name, &dna.Random)
		if err != nil {
			return err
		}
		cfg := pipeline.Default(layout, pipeline.SupermerMode)
		cfg.Ord = ord
		res, p, err := in.run(cfg)
		if err != nil {
			return err
		}
		t.Row(name, stats.Count(res.ItemsExchanged), stats.Bytes(res.PayloadBytes),
			fmt.Sprintf("%.2f", res.LoadImbalance()), p.Modeled.Total())
	}
	fmt.Fprint(o.Out, t)

	fmt.Fprintf(o.Out, "\nAblation — window size (k=17, m=7, value ordering)\n")
	t2 := stats.NewTable("window", "max supermer", "supermers", "payload", "total time")
	for _, w := range []int{7, 15, 31, 63} {
		cfg := pipeline.Default(layout, pipeline.SupermerMode)
		cfg.Window = w
		res, p, err := in.run(cfg)
		if err != nil {
			return err
		}
		t2.Row(w, fmt.Sprintf("%d bases", w+cfg.K-1),
			stats.Count(res.ItemsExchanged), stats.Bytes(res.PayloadBytes), p.Modeled.Total())
	}
	fmt.Fprint(o.Out, t2)
	fmt.Fprintln(o.Out, "window 15 packs any supermer into one 64-bit word (§IV-C); larger windows"+
		" cut the supermer count but pad the fixed-stride wire image")
	return nil
}
