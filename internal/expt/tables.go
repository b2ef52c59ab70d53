package expt

import (
	"fmt"

	"dedukt/internal/cluster"
	"dedukt/internal/genome"
	"dedukt/internal/pipeline"
	"dedukt/internal/stats"
)

// RunTable2 reproduces Table II: the number of items exchanged by the
// k-mer-based counter versus the supermer-based counter at m=9 and m=7.
// Paper: supermers cut the item count ~3.3-3.8×, with m=7 strictly fewer
// than m=9.
func RunTable2(o Options) error {
	layout := cluster.SummitGPU(16)
	fmt.Fprintf(o.Out, "Table II — items exchanged (scale %.2f, 96 ranks)\n", o.scale())
	t := stats.NewTable("dataset", "kmer", "supermer (m=9)", "supermer (m=7)", "reduction m=7")
	for _, d := range genome.Table1() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		var items [3]uint64
		for i, m := range []int{0, 9, 7} {
			cfg := pipeline.Default(layout, pipeline.SupermerMode)
			if m == 0 {
				cfg = pipeline.Default(layout, pipeline.KmerMode)
			} else {
				cfg.M = m
			}
			res, err := pipeline.Run(cfg, in.reads)
			if err != nil {
				return err
			}
			items[i] = res.ItemsExchanged
		}
		t.Row(d.Name, stats.Count(items[0]), stats.Count(items[1]), stats.Count(items[2]),
			fmt.Sprintf("%.2f×", float64(items[0])/float64(items[2])))
	}
	fmt.Fprint(o.Out, t)
	return nil
}

// RunTable3 reproduces Table III: the per-partition k-mer load (min, max,
// average) and the max/avg imbalance on 384 GPU partitions, k-mer hashing
// versus supermer (m=7) minimizer partitioning, for the two large datasets.
// Paper: 1.16 (C. elegans) and 2.37 (H. sapiens) for supermers versus ~1.1
// for k-mer hashing.
func RunTable3(o Options) error {
	layout := cluster.SummitGPU(64) // 384 ranks
	fmt.Fprintf(o.Out, "Table III — per-partition k-mer load, 384 partitions (scale %.2f)\n", o.scale())
	t := stats.NewTable("dataset", "avg", "kmer min", "kmer max", "kmer imb",
		"sm(m=7) min", "sm(m=7) max", "sm imb")
	for _, d := range genome.LargeDatasets() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		resK, err := pipeline.Run(pipeline.Default(layout, pipeline.KmerMode), in.reads)
		if err != nil {
			return err
		}
		cfgS := pipeline.Default(layout, pipeline.SupermerMode)
		cfgS.M = 7
		resS, err := pipeline.Run(cfgS, in.reads)
		if err != nil {
			return err
		}
		minK, maxK, avg := stats.MinMaxMean(resK.PerRankKmers)
		minS, maxS, _ := stats.MinMaxMean(resS.PerRankKmers)
		t.Row(d.Name, stats.Count(uint64(avg)),
			stats.Count(minK), stats.Count(maxK), fmt.Sprintf("%.2f", resK.LoadImbalance()),
			stats.Count(minS), stats.Count(maxS), fmt.Sprintf("%.2f", resS.LoadImbalance()))
	}
	fmt.Fprint(o.Out, t)
	return nil
}

// RunBalance evaluates the frequency-balanced minimizer partitioner this
// library implements for the paper's §VII future work ("devise a better
// partitioning algorithm that maintains the locality and at the same time
// partitions data evenly"): Table III's supermer imbalance with hash
// assignment versus LPT load-aware assignment, plus the end-to-end effect.
func RunBalance(o Options) error {
	layout := cluster.SummitGPU(64) // 384 ranks
	fmt.Fprintf(o.Out, "§VII future work — balanced minimizer partitioning, 384 partitions (scale %.2f, times projected to the paper's inputs)\n", o.scale())
	t := stats.NewTable("dataset", "hash imb", "balanced imb", "hash total", "balanced total", "gain")
	for _, d := range genome.LargeDatasets() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		hashCfg := pipeline.Default(layout, pipeline.SupermerMode)
		resHash, hash, err := in.run(hashCfg)
		if err != nil {
			return err
		}
		balCfg := hashCfg
		balCfg.BalancedPartition = true
		resBal, bal, err := in.run(balCfg)
		if err != nil {
			return err
		}
		t.Row(d.Name,
			fmt.Sprintf("%.2f", resHash.LoadImbalance()),
			fmt.Sprintf("%.2f", resBal.LoadImbalance()),
			hash.Modeled.Total(), bal.Modeled.Total(),
			fmt.Sprintf("%.2f×", speedup(hash, bal)))
	}
	fmt.Fprint(o.Out, t)
	return nil
}

// RunTheory reproduces the §IV-D analysis: the model predicts per-processor
// communication of O((P-1)/P · K/P · k) bases in k-mer mode and the
// supermer reduction ≈ kmer-bases / supermer-bases; compare both with the
// measured traffic.
func RunTheory(o Options) error {
	layout := cluster.SummitGPU(16)
	p := layout.Ranks()
	fmt.Fprintf(o.Out, "§IV-D — theoretical vs measured communication (96 ranks, scale %.2f)\n", o.scale())
	t := stats.NewTable("dataset", "K (kmers)", "pred fabric", "meas fabric", "avg s (bases)", "pred reduction", "meas reduction")
	for _, d := range genome.SmallDatasets() {
		in, err := loadDataset(d, o)
		if err != nil {
			return err
		}
		resK, err := pipeline.Run(pipeline.Default(layout, pipeline.KmerMode), in.reads)
		if err != nil {
			return err
		}
		resS, err := pipeline.Run(pipeline.Default(layout, pipeline.SupermerMode), in.reads)
		if err != nil {
			return err
		}
		const k = 17
		// §IV-D model: with a uniform hash, each rank ships (P-1)/P of its
		// k-mers off-rank; the fabric only carries the inter-NODE share,
		// (P - ranksPerNode)/P with co-located ranks excluded.
		interFrac := float64(p-layout.RanksPerNode) / float64(p)
		predictedFabric := uint64(float64(resK.ItemsExchanged*8) * interFrac)
		// Average supermer length s in bases: a supermer holding n k-mers
		// spans n+k-1 bases.
		sAvg := float64(resK.ItemsExchanged)/float64(resS.ItemsExchanged) + k - 1
		// Predicted byte reduction: K k-mers × 8B vs S supermers × 9B wire
		// images (§IV-C's one word + length byte).
		predictedReduction := float64(resK.ItemsExchanged*8) / float64(resS.ItemsExchanged*9)
		measuredReduction := float64(resK.PayloadBytes) / float64(resS.PayloadBytes)
		t.Row(d.Name,
			stats.Count(resK.ItemsExchanged),
			stats.Bytes(predictedFabric),
			stats.Bytes(resK.Volume.FabricBytes),
			fmt.Sprintf("%.1f", sAvg),
			fmt.Sprintf("%.2f×", predictedReduction),
			fmt.Sprintf("%.2f×", measuredReduction))
	}
	fmt.Fprint(o.Out, t)
	fmt.Fprintln(o.Out, "pred fabric: uniform-hash model O((P-1)/P · K/P · k) summed over ranks, inter-node share only")
	return nil
}
