// Command bench is the repository's benchmark: six named workloads, each
// measured in a process of its own, end to end and layer by layer, every
// result checked against the serial oracle or the served database.
//
// The driver named in BENCHMARK.json runs one workload per invocation:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output. The
// process generates the inputs from the seed (set-up), writes them to files
// with a manifest, and starts a child that loads the files and measures, so
// that the child's CPU time and peak RSS belong to the workload alone.
// Without --workload the program runs the whole suite that way and prints
// every metric. README.md has the tables.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dedukt/internal/obs"
	"dedukt/internal/stats"
)

// options are the knobs of one workload process.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// -quick shrinks every input and runs each phase once: a smoke test of the
// whole path for `go test`, not a measurement.
func (o options) scale() float64 {
	if o.quick {
		return 0.02
	}
	return 1
}

func pick(quick bool, q, full int) int {
	if quick {
		return q
	}
	return full
}

func (o options) minSetups() int   { return pick(o.quick, 1, 2) }
func (o options) warmups() int     { return pick(o.quick, 0, 2) }
func (o options) minReps() int     { return pick(o.quick, 1, 3) }
func (o options) tracedReps() int  { return pick(o.quick, 1, 2) }
func (o options) probePasses() int { return pick(o.quick, 1, 3) }
func (o options) clients() int     { return runtime.GOMAXPROCS(0) }

// probePass is the least one probe pass lasts: 0.16 s of an 8 s run.
func (o options) probePass() time.Duration { return o.dur(o.seconds / 50) }

func (o options) dur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// poolSize is how many requests each client prepares in set-up: enough that
// a window rarely wraps, and a working set far beyond the replicas' LRU.
func (o options) poolSize(batch bool) int {
	switch {
	case o.quick:
		return 64
	case batch:
		return 1 << 12
	}
	return 1 << 17
}

// outcome collects what one run of a workload reports.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	notes             []string // the timed samples behind the metrics, and remarks
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}}
}

// noteSamples records how a timed metric was sampled: median, quartiles and
// sample count.
func (o *outcome) noteSamples(name string, xs []float64) {
	s := summarize(xs)
	o.notes = append(o.notes, fmt.Sprintf("samples %-10s median %.6g  quartiles %.6g-%.6g  n=%d", name, s.Median, s.Q1, s.Q3, s.N))
}

var knownMetrics = func() map[string]metricSpec {
	m := map[string]metricSpec{}
	for _, s := range endToEnd {
		m[s.Name] = s
	}
	for _, s := range perLayer {
		m[s.Name] = s
	}
	return m
}()

// set records a metric; naming one the registry lacks is a bug here.
func (o *outcome) set(name string, v float64) {
	if _, ok := knownMetrics[name]; !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	o.metrics[name] = v
}

// attempt counts one operation and its failure, if any.
func (o *outcome) attempt(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

func (w workloadSpec) hasLayer(layer string) bool {
	for _, l := range w.Layers {
		if l == layer {
			return true
		}
	}
	return false
}

// environment is recorded with every output so a number can be traced to
// the machine and commit that produced it.
type environment struct {
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	NProc       int    `json:"nproc"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Commit      string `json:"commit"`
}

func currentEnvironment(seed int64) environment {
	b := obs.ReadBuild()
	commit := b.Revision
	if commit == "" {
		commit = "unknown" // built outside a git checkout
	} else if b.Modified {
		commit += "+modified"
	}
	return environment{
		Seed: seed, HeldOutSeed: heldOutSeed,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: b.GoVersion, Commit: commit,
	}
}

// result is the object on the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf reports every end-to-end metric of an untraced run, or every
// per-layer metric of a traced one; a layer the workload does not exercise
// reads 0.
func resultOf(out *outcome, trace bool) (result, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	r := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok && !trace {
			return r, fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{v, s.Unit}
	}
	return r, nil
}

// metricTable lists each measured metric of specs by name with its value,
// unit and direction, and its bound (end-to-end) or how it is measured and
// what it should move (per-layer).
func metricTable(out *outcome, specs []metricSpec) string {
	header := []string{"metric", "value", "unit", "better", "bound"}
	if specs[0].Bound == 0 {
		header = append(header[:4], "should move", "how measured")
	}
	tbl := stats.NewTable(header...)
	for _, m := range specs {
		v, ok := out.metrics[m.Name]
		if !ok {
			continue
		}
		cells := []any{m.Name, fmt.Sprintf("%.6g", v), m.Unit, m.Better}
		if m.Bound > 0 {
			cells = append(cells, fmt.Sprintf("%g%%", 100*m.Bound))
		} else {
			cells = append(cells, m.Moves, m.Help)
		}
		tbl.Row(cells...)
	}
	return tbl.String()
}

// renderRun prints all a run measured: an untraced run measures some layer
// metrics too, the timings and exact counts of its repetitions.
func renderRun(spec workloadSpec, out *outcome) string {
	s := fmt.Sprintf("%s  (error_rate %d/%d)\n%s\n%s", spec.Name, out.failed, out.attempted, metricTable(out, endToEnd), metricTable(out, perLayer))
	for _, n := range out.notes {
		s += n + "\n"
	}
	return s
}

func main() {
	var (
		opt       options
		workload  = flag.String("workload", "", "run this one workload and print its result object as the last line")
		trace     = flag.Int("trace", 0, "with -workload: 1 runs traced repetitions and layer probes and reports per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail if an end-to-end metric worsens by more than its bound")
		manifest  = flag.String("write-manifest", "", "write BENCHMARK.json to this path and exit")
		child     = flag.String("child", "", "internal: measure the workload whose set-up wrote this manifest")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "drives every generated input: genomes, reads, key draws")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "how long one run measures")
	flag.BoolVar(&opt.quick, "quick", false, "tiny inputs, one repetition: a smoke test, not a measurement")
	flag.StringVar(&opt.outDir, "out", "", "directory for manifests, Chrome traces and layer tables (default: kbench-out in the temporary directory)")
	flag.Parse()
	if err := run(opt, *workload, *trace, *selfcheck, *manifest, *child); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(opt options, workload string, trace int, selfcheck bool, manifest, child string) error {
	if manifest != "" {
		data, err := manifestJSON()
		if err != nil {
			return err
		}
		return os.WriteFile(manifest, data, 0o644)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if opt.seconds <= 0 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if opt.quick {
		opt.seconds = 0.5
	}
	if opt.outDir == "" {
		// One fixed place, overwritten by the next run: nothing piles up.
		opt.outDir = filepath.Join(os.TempDir(), "kbench-out")
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	opt.trace = trace == 1
	if child != "" {
		out, err := runChild(child, opt)
		if err != nil {
			return err
		}
		return printJSON(reportOf(out))
	}
	if workload == "" {
		return runSuite(opt, selfcheck)
	}
	spec, ok := workloadByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	out, err := runWorkload(spec, opt, spawnChild)
	if err != nil {
		return err
	}
	fmt.Print(renderRun(spec, out))
	if out.firstErr != nil {
		fmt.Printf("first failure: %v\n", out.firstErr)
	}
	env, _ := json.Marshal(currentEnvironment(opt.seed))
	fmt.Printf("environment %s\noutput in %s\n", env, opt.outDir)
	res, err := resultOf(out, opt.trace)
	if err != nil {
		return err
	}
	return printJSON(res)
}

func printJSON(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
