package expt

import (
	"fmt"

	"dedukt/internal/cluster"
	"dedukt/internal/genome"
	"dedukt/internal/gpusim"
	"dedukt/internal/pipeline"
	"dedukt/internal/stats"
)

// RunWhatIf projects the pipeline onto hardware the paper did not have: the
// same 64-node run with A100s instead of V100s, and with GPUDirect instead
// of host-staged exchange — the "opens the door to omics computations at
// unprecedented scale" direction of §VII, quantified with the calibrated
// cost model. Each GPU runs once: its GPUDirect row is the same Result
// less its host staging (Result.Staging). The communication bottleneck thesis predicts modest gains
// from a faster GPU and real gains only from attacking the exchange.
func RunWhatIf(o Options) error {
	d, err := genome.DatasetByName("H. sapien 54X")
	if err != nil {
		return err
	}
	in, err := loadDataset(d, o)
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "What-if — %s, 64 nodes, supermer m=7 (scale %.2f, projected to the paper's input)\n", d.Name, o.scale())
	t := stats.NewTable("configuration", "parse", "exchange", "count", "total", "vs paper")
	var baseline float64
	for _, gpu := range []struct {
		labels [2]string // host-staged, GPUDirect
		cfg    gpusim.Config
	}{
		{[2]string{"V100, host-staged (paper)", "V100, GPUDirect"}, gpusim.V100()},
		{[2]string{"A100, host-staged", "A100, GPUDirect"}, gpusim.A100()},
	} {
		layout := cluster.SummitGPU(64)
		layout.GPU = &gpu.cfg
		_, p, err := in.run(pipeline.Default(layout, pipeline.SupermerMode))
		if err != nil {
			return err
		}
		direct := p.Modeled
		direct.Exchange -= p.Staging
		if baseline == 0 {
			baseline = p.Modeled.Total().Seconds()
		}
		for i, p := range []pipeline.PhaseBreakdown{p.Modeled, direct} {
			t.Row(gpu.labels[i], p.Parse, p.Exchange, p.Count, p.Total(), fmt.Sprintf("%.2f×", baseline/p.Total().Seconds()))
		}
	}
	fmt.Fprint(o.Out, t)
	fmt.Fprintln(o.Out, "the exchange-bound regime caps GPU-generation gains; transport changes move the needle")
	return nil
}
