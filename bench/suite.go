package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"dedukt/internal/stats"
)

// suiteRun is one pass over the six workloads: what every untraced run
// measured and, unless skipped, what every traced one did.
type suiteRun struct {
	EndToEnd map[string]result `json:"end_to_end"`
	PerLayer map[string]result `json:"per_layer,omitempty"`
	// exact holds the exact-count layer metrics of the untraced runs, which
	// read them off the last pipeline.Result at no cost.
	exact map[string]map[string]float64
}

// exactMetrics are counts, not timings: two runs of the same code on the
// same seed must agree on them to the last digit.
var exactMetrics = []string{"pipeline.payload_bytes_per_kmer", "pipeline.load_imbalance"}

func runPass(opt options, traced bool) (suiteRun, error) {
	run := suiteRun{EndToEnd: map[string]result{}, PerLayer: map[string]result{}, exact: map[string]map[string]float64{}}
	one := func(w workloadSpec, trace bool) (*outcome, result, error) {
		o := opt
		o.trace = trace
		out, err := runWorkload(w, o, spawnChild)
		if err != nil {
			return nil, result{}, err
		}
		fmt.Println(renderRun(w, out))
		r, err := resultOf(out, trace)
		return out, r, err
	}
	for _, w := range workloads {
		out, r, err := one(w, false)
		if err != nil {
			return run, err
		}
		run.EndToEnd[w.Name] = r
		run.exact[w.Name] = map[string]float64{}
		for _, name := range exactMetrics {
			run.exact[w.Name][name] = out.metrics[name]
		}
		if !traced {
			continue
		}
		if _, r, err = one(w, true); err != nil {
			return run, err
		}
		run.PerLayer[w.Name] = r
	}
	return run, nil
}

// runSuite runs every workload, prints every metric by name and writes
// results.json beside the traces. With selfcheck it runs the untraced suite
// twice instead and compares the two.
func runSuite(opt options, selfcheck bool) error {
	first, err := runPass(opt, !selfcheck)
	if err != nil {
		return err
	}
	fmt.Print(renderSuite("end-to-end", endToEnd, first.EndToEnd))
	if !selfcheck {
		fmt.Print(renderSuite("per-layer (0 = layer not exercised by the workload)", perLayer, first.PerLayer))
	}
	doc := struct {
		Claim       *string     `json:"claim"` // this benchmark claims no gain
		Environment environment `json:"environment"`
		Quick       bool        `json:"quick"`
		Runs        []suiteRun  `json:"runs"`
	}{Environment: currentEnvironment(opt.seed), Quick: opt.quick, Runs: []suiteRun{first}}

	var unresolved []string
	if selfcheck {
		second, err := runPass(opt, false)
		if err != nil {
			return err
		}
		fmt.Print(renderSuite("end-to-end, second pass", endToEnd, second.EndToEnd))
		doc.Runs = append(doc.Runs, second)
		unresolved = compareRuns(first, second)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(opt.outDir, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("results, manifests, traces and layer tables in %s\n", opt.outDir)
	for _, run := range doc.Runs {
		for _, results := range []map[string]result{run.EndToEnd, run.PerLayer} {
			for name, r := range results {
				if !r.Correct {
					return fmt.Errorf("%s: %d of %d operations failed; see above", name, r.Failed, r.Attempted)
				}
			}
		}
	}
	if len(unresolved) > 0 {
		return fmt.Errorf("selfcheck: %d unresolved metrics:\n  %s", len(unresolved), strings.Join(unresolved, "\n  "))
	}
	if selfcheck {
		fmt.Println("selfcheck passed: every end-to-end metric repeats within its bound and the exact counts are identical")
	}
	return nil
}

// compareRuns lists every pairing of workload and end-to-end metric on
// which two passes of the same code differ by more than the metric's bound:
// such a metric cannot resolve a change of that size on this machine. It
// also lists every exact count that moved at all.
func compareRuns(a, b suiteRun) []string {
	var unresolved []string
	for _, w := range workloads {
		for _, m := range endToEnd {
			x, y := a.EndToEnd[w.Name].Metrics[m.Name].Value, b.EndToEnd[w.Name].Metrics[m.Name].Value
			if diff := math.Abs(worsening(x, y, m.Better)); diff > m.Bound {
				unresolved = append(unresolved, fmt.Sprintf("%s %s: unresolved, %.6g vs %.6g differ by %.1f%% (bound %g%%)", w.Name, m.Name, x, y, 100*diff, 100*m.Bound))
			}
		}
		for _, name := range exactMetrics {
			if x, y := a.exact[w.Name][name], b.exact[w.Name][name]; x != y {
				unresolved = append(unresolved, fmt.Sprintf("%s %s: exact count differs, %v vs %v", w.Name, name, x, y))
			}
		}
	}
	return unresolved
}

// renderSuite prints one row per metric and one column per workload.
func renderSuite(title string, specs []metricSpec, results map[string]result) string {
	header := []string{"metric", "unit"}
	for _, w := range workloads {
		header = append(header, w.Name)
	}
	tbl := stats.NewTable(header...)
	row := func(name, unit string, cell func(result) float64) {
		cells := []any{name, unit}
		for _, w := range workloads {
			cells = append(cells, fmt.Sprintf("%.6g", cell(results[w.Name])))
		}
		tbl.Row(cells...)
	}
	for _, m := range specs {
		row(m.Name, m.Unit, func(r result) float64 { return r.Metrics[m.Name].Value })
	}
	row("error_rate", "share", func(r result) float64 { return float64(r.Failed) / math.Max(1, float64(r.Attempted)) })
	return fmt.Sprintf("\n== %s ==\n%s", title, tbl)
}
