// Command dedukt is the distributed k-mer counter CLI: it runs the full
// simulated pipeline (parse & process → exchange → count) over a FASTQ/FASTA
// file or a named synthetic dataset and reports the counted spectrum
// together with the Summit-projected phase breakdown.
//
// Examples:
//
//	dedukt -in reads.fastq -k 17 -mode supermer -m 7 -nodes 16
//	dedukt -dataset "E. coli 30X" -scale 0.5 -mode kmer -engine cpu
//	dedukt -in reads.fasta.gz -k 21 -canonical -top 10
//	dedukt -in a.fastq.gz,b.fastq.gz -stream -mem-budget 64M
//	dedukt -in big.fastq -stream -ckpt-dir ckpt -ckpt-rounds 4
//	dedukt -in big.fastq -resume ckpt
//	dedukt -fault-seed 1 -fault-drop 0.05
//
// -in accepts a comma-separated file list; gzip inputs are detected by
// their magic bytes, so any mix of plain and compressed files works
// regardless of suffix. Either way the ranks' shared producer deals the
// reads out in rounds; with -stream the input is never materialized, and
// the live working set stays under -mem-budget however large the dataset
// is.
//
// Without -in or -dataset, a small synthetic dataset is used, so
// fault-injection demos run standalone.
//
// Every run ships the paper's flat P×P exchange and prices it three ways in
// the exchange row (and in -json): as run (exchange_sec), its host staging
// (staging_sec; the exchange less it is the GPUDirect one), and
// leader-routed through the node leaders (hier_exchange_sec).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kserve"
	"dedukt/internal/minimizer"
	"dedukt/internal/obs"
	"dedukt/internal/pipeline"
	recov "dedukt/internal/recover"
	"dedukt/internal/stats"
)

// input is where a run's reads come from — the one choice the pipeline
// cannot make: -in files, a -dataset (or the demo dataset), streamed or
// not, or a checkpoint to -resume.
type input struct {
	paths   []string
	dataset string
	scale   float64
	stream  bool
	resume  string
	trimQ   int
	k       int            // reads trimmed shorter than a k-mer are dropped
	entry   pipeline.Entry // the pipeline call the choice makes
}

// output is what the command does with a finished run.
type output struct {
	top, histMax                      int
	json, gpuStats, report            bool
	kcd, serve, pprof, trace, metrics string
}

// parseArgs binds the command line straight into one pipeline.Config and
// returns it with the input choice and the output options. It applies the
// rules on input selection and on output-only flags itself and leaves every
// rule on which settings combine to Config.Validate, which it calls before
// any input is read.
func parseArgs(args []string) (pipeline.Config, input, output, error) {
	cfg := pipeline.Default(cluster.SummitGPU(4), pipeline.SupermerMode)
	var (
		in                        input
		out                       output
		inPaths, ordering, engine string
		nodes                     int
	)
	fs := flag.NewFlagSet("dedukt", flag.ContinueOnError)
	fs.StringVar(&inPaths, "in", "", "comma-separated input FASTQ/FASTA paths (gzip detected by magic bytes); mutually exclusive with -dataset")
	fs.StringVar(&in.dataset, "dataset", "", `synthetic Table I dataset, e.g. "E. coli 30X"`)
	fs.Float64Var(&in.scale, "scale", 1.0, "synthetic dataset scale factor")
	fs.IntVar(&cfg.K, "k", cfg.K, "k-mer length (1..32)")
	fs.IntVar(&cfg.M, "m", cfg.M, "minimizer length (supermer mode)")
	fs.IntVar(&cfg.Window, "window", cfg.Window, "supermer window in k-mer positions (supermer mode)")
	fs.TextVar(&cfg.Mode, "mode", cfg.Mode, "exchange mode: kmer or supermer")
	fs.StringVar(&engine, "engine", "gpu", "compute engine: gpu or cpu")
	fs.IntVar(&nodes, "nodes", cfg.Layout.Nodes, "number of Summit nodes to simulate; the exchange ships flat P×P and is also priced leader-routed (one L×L Alltoallv between the node leaders), which equals it on one node")
	fs.StringVar(&ordering, "ordering", "value", "minimizer ordering: value, kmc2 or hashed")
	fs.Func("encoding", "base encoding: random (paper, the default) or lex", func(s string) (err error) {
		cfg.Enc, err = dna.EncodingByName(s)
		return err
	})
	fs.BoolVar(&cfg.Canonical, "canonical", false, "count canonical k-mers (kmer mode only)")
	fs.IntVar(&out.top, "top", 5, "print the N most frequent k-mers")
	fs.IntVar(&out.histMax, "hist", 10, "print histogram classes up to this frequency")
	fs.BoolVar(&out.json, "json", false, "emit a machine-readable JSON report instead of text")
	fs.IntVar(&in.trimQ, "trimq", 0, "quality-trim read ends below this phred score before counting (0 = off)")
	fs.BoolVar(&in.stream, "stream", false, "stream -in files through the pipeline without preloading them (bounded memory; requires -in)")
	fs.Func("mem-budget", "working-set budget, e.g. 64M or 2G: caps every rank's round at budget/(48·ranks) bases, forcing multi-round operation on a larger input (default 256M with -stream; without -stream, one round)", func(s string) (err error) {
		cfg.MemBudgetBytes, err = parseSize(s)
		return err
	})
	fs.StringVar(&cfg.Spill.Dir, "spill-dir", "", "count out-of-core: spill received items into minimizer-partitioned bins under this directory (pass 1), then count one bin at a time (pass 2); bit-identical to in-memory counting")
	fs.IntVar(&cfg.Spill.Bins, "spill-bins", 0, "disk bins per rank when -spill-dir is set (default 32)")
	fs.StringVar(&cfg.Ckpt.Dir, "ckpt-dir", "", "checkpoint the run into this directory every -ckpt-rounds rounds; enables -resume, and after a rank death the survivors restart from the last checkpoint")
	fs.IntVar(&cfg.Ckpt.Every, "ckpt-rounds", 0, "rounds between checkpoints when -ckpt-dir is set (default 4)")
	fs.BoolVar(&cfg.Ckpt.NoShrink, "no-shrink", false, "do not restart the survivors after a rank death (the run fails instead; resume it with -resume; requires -ckpt-dir)")
	fs.StringVar(&in.resume, "resume", "", "resume an interrupted run from this checkpoint directory (requires the same -in/-k/... configuration)")
	fs.BoolVar(&out.gpuStats, "gpustats", false, "print GPU kernel efficiency metrics (GPU engine only)")
	fs.StringVar(&out.kcd, "okcd", "", "write the counted k-mers to this KCD database (see cmd/kmertools)")
	fs.StringVar(&out.serve, "serve", "", "after counting, serve the spectrum over HTTP on this address (see cmd/kserve; blocks until SIGINT)")
	fs.StringVar(&out.pprof, "pprof-addr", "", "serve net/http/pprof on this address (off by default; e.g. 127.0.0.1:6060)")
	fs.BoolVar(&out.report, "report", false, "print the per-round observability report (imbalance trajectory, slowest-rank attribution, fault tallies)")
	fs.StringVar(&out.trace, "trace-out", "", "write a Chrome trace-event JSON of the run to this file (open in Perfetto or chrome://tracing)")
	fs.StringVar(&out.metrics, "metrics-out", "", "write the run's metrics in Prometheus text format to this file")
	fs.Uint64Var(&cfg.Fault.Seed, "fault-seed", 0, "fault schedule seed (same seed replays the same faults)")
	fs.Float64Var(&cfg.Fault.Kill, "fault-kill", 0, "per-(rank,round) probability a rank dies at round start")
	fs.Float64Var(&cfg.Fault.Delay, "fault-delay", 0, "per-(rank,round) probability of a straggler stall")
	fs.DurationVar(&cfg.Fault.DelayFor, "fault-delayfor", 0, "straggler stall length (default 2ms)")
	fs.Float64Var(&cfg.Fault.Drop, "fault-drop", 0, "per-payload probability it vanishes in flight")
	fs.Float64Var(&cfg.Fault.Corrupt, "fault-corrupt", 0, "per-payload probability one bit flips in flight")
	fs.DurationVar(&cfg.ExchangeDeadline, "deadline", 0, "per-collective deadline before peers give up on a stalled rank (0 = none)")
	fs.IntVar(&cfg.Fault.FatalRank, "fault-kill-rank", -1, "deterministically kill this rank at -fault-kill-round (both must be set; exercises checkpoint/resume and the restart after a rank death)")
	fs.IntVar(&cfg.Fault.FatalRound, "fault-kill-round", -1, "round at which -fault-kill-rank dies")
	if err := fs.Parse(args); err != nil {
		return cfg, in, out, err
	}

	in.paths, in.k = splitPaths(inPaths), cfg.K
	switch engine {
	case "gpu":
		cfg.Layout = cluster.SummitGPU(nodes)
	case "cpu":
		cfg.Layout = cluster.SummitCPU(nodes)
	default:
		return cfg, in, out, fmt.Errorf("unknown engine %q", engine)
	}
	var err error
	if cfg.Ord, err = minimizer.ByName(ordering, cfg.Enc); err != nil {
		return cfg, in, out, err
	}
	// Neither kill flag set (both -1) means no scheduled kill; one without
	// the other is left for fault.Config.Validate to refuse.
	kill := &cfg.Fault
	if kill.FatalKill = kill.FatalRank >= 0 || kill.FatalRound >= 0; !kill.FatalKill {
		kill.FatalRank, kill.FatalRound = 0, 0
	}
	cfg.KeepTables = out.kcd != "" || out.serve != ""

	switch {
	case in.resume != "":
		// -resume continues a checkpointed streaming run: it implies the
		// stream path and checkpoints into the directory it resumes.
		in.stream, cfg.Ckpt.Dir, in.entry = true, in.resume, pipeline.Resuming
	case in.stream:
		in.entry = pipeline.Streaming
	}
	switch {
	case len(in.paths) > 0 && in.dataset != "":
		return cfg, in, out, fmt.Errorf("-in and -dataset are mutually exclusive")
	case in.stream && len(in.paths) == 0:
		return cfg, in, out, fmt.Errorf("-stream and -resume read -in files (synthetic datasets are generated in memory already)")
	case out.gpuStats && cfg.Layout.GPU == nil:
		return cfg, in, out, fmt.Errorf("-gpustats reports GPU kernels and needs -engine gpu")
	case cfg.Ckpt.Dir != "" && !in.stream && in.trimQ > 0:
		return cfg, in, out, fmt.Errorf("-ckpt-dir with -trimq needs -stream (an in-memory checkpoint addresses the trimmed reads, which -resume cannot find in the files)")
	}
	// A stream's checkpoints address the -in records, reopened here; an
	// in-memory run's address its drained reads, which Run re-seeks itself.
	if in.stream {
		cfg.Ckpt.Reopen = in.open
	}
	return cfg, in, out, cfg.Validate(in.entry)
}

// open returns the run's read source positioned at cur: the -in files as
// one stream, or the synthetic dataset as a slice, quality-trimmed under
// -trimq. Every path reads through it — the in-memory run drains it from
// the start, -stream hands it to the pipeline, and checkpoint recovery
// reopens it at a cursor. Cursors address the untrimmed records, so the
// trim goes on after the seek. A stream drained to its end holds no file
// open.
func (in *input) open(cur fastq.Cursor) (fastq.Source, error) {
	var src interface {
		fastq.CursorSource
		SeekCursor(fastq.Cursor) error
	}
	if len(in.paths) > 0 {
		s, err := fastq.OpenStream(in.paths...)
		if err != nil {
			return nil, err
		}
		src = s
	} else {
		reads, err := in.generate()
		if err != nil {
			return nil, err
		}
		src = fastq.NewSliceSource(reads)
	}
	if err := src.SeekCursor(cur); err != nil {
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
		return nil, err
	}
	if in.trimQ > 0 {
		return fastq.NewTrimSource(src, in.trimQ, in.k), nil
	}
	return src, nil
}

// generate builds the -dataset reads, or without -in or -dataset a small
// synthetic input, so runs like `dedukt -fault-seed 1 -fault-drop 0.05`
// need no files.
func (in *input) generate() ([]fastq.Record, error) {
	name, scale := in.dataset, in.scale
	if name == "" {
		name, scale = "E. coli 30X", 0.05
		log.Printf("no -in or -dataset given: using synthetic %q at scale %g", name, scale)
	}
	d, err := genome.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	return d.Reads(scale)
}

// count runs the pipeline call the input selects.
func count(cfg pipeline.Config, in *input) (*pipeline.Result, error) {
	if in.entry == pipeline.Resuming {
		// The checkpoint's Reopen hook supplies the fast-forwarded source.
		return pipeline.ResumeStream(cfg)
	}
	src, err := in.open(fastq.Cursor{})
	if err != nil {
		return nil, err
	}
	if in.entry == pipeline.Streaming {
		return pipeline.RunStream(cfg, src)
	}
	reads, err := fastq.Drain(src)
	if err != nil {
		return nil, err
	}
	return pipeline.Run(cfg, reads)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dedukt: ")
	cfg, in, out, err := parseArgs(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		log.Fatal(err)
	}
	if cfg.Ckpt.Dir != "" {
		if cfg.Ckpt.Inputs, err = statInputs(in.paths); err != nil {
			log.Fatal(err)
		}
	}

	obs.ServePprof(out.pprof, log.Printf)
	var rec *obs.Recorder
	if out.report || out.trace != "" || out.metrics != "" || out.serve != "" {
		rec = obs.NewRecorder(cfg.Layout.Ranks())
		cfg.Obs = rec
		obs.RegisterBuildInfo(rec.Registry(), "dedukt")
	}

	res, err := count(cfg, &in)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		if err := writeObsArtifacts(rec, out.trace, out.metrics); err != nil {
			log.Fatal(err)
		}
	}
	if out.json {
		if err := reportJSON(os.Stdout, cfg, res, out.top); err != nil {
			log.Fatal(err)
		}
		return
	}
	report(os.Stdout, cfg, res, out.top, out.histMax)
	if out.gpuStats {
		reportGPUStats(os.Stdout, res)
	}
	if out.report {
		fmt.Fprintln(os.Stdout)
		if err := rec.BuildReport().WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
		reportTables(os.Stdout, rec.Registry(), cfg.Layout.Ranks())
		if res.GPU {
			sg := kernels.Staging()
			fmt.Fprintf(os.Stdout, "\nkernel staging pool: %d slots held %s at most; ranks waited %s for one\n",
				sg.Slots, stats.Bytes(uint64(sg.PeakBytes)), stats.Seconds(sg.Wait))
		}
	}
	if out.kcd != "" {
		if err := writeKCD(out.kcd, cfg, res); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", out.kcd)
	}
	if out.serve != "" {
		if err := serveResult(out.serve, cfg, res, rec); err != nil {
			log.Fatal(err)
		}
	}
}

// reportTables prints the -report line on the ranks' counter tables, each
// figure the most over the ranks' gauges: what the largest table holds beside
// what its rank reserved room for, what growing the tables moved and took,
// how full the tables are beside the slots an insert probes — the figure the
// load moves the modeled count by — and how many keys' counts outgrew their
// one-byte lanes.
func reportTables(w io.Writer, reg *obs.Registry, ranks int) {
	var slots, keys, reserved, rehashed, grows, growing, load, probes, escaped float64
	for r := 0; r < ranks; r++ {
		gauge := func(name string) float64 {
			return reg.Gauge("pipeline_table_"+name, "", obs.L("rank", strconv.Itoa(r))).Value()
		}
		slots = max(slots, gauge("slots"))
		keys = max(keys, gauge("load_factor")*gauge("slots"))
		reserved = max(reserved, gauge("reserved_keys"))
		rehashed = max(rehashed, gauge("rehashed_keys"))
		grows = max(grows, gauge("grows"))
		growing = max(growing, gauge("grow_seconds"))
		load = max(load, gauge("load_factor"))
		probes = max(probes, gauge("probes_per_insert"))
		escaped = max(escaped, gauge("escaped_keys"))
	}
	fmt.Fprintf(w, "\ncounter tables: at most %.0f slots holding %.0f keys, room reserved for %.0f; %.0f keys rehashed in %.0f grows, %s inside Reserve; load %.3f, %.2f probes an insert; %.0f keys escaped their count lanes\n",
		slots, keys, reserved, rehashed, grows, stats.Seconds(time.Duration(growing*float64(time.Second))), load, probes, escaped)
}

// writeObsArtifacts saves the recorded trace and metrics exposition to the
// paths given by -trace-out and -metrics-out (empty paths are skipped).
func writeObsArtifacts(rec *obs.Recorder, tracePath, metricsPath string) error {
	if tracePath != "" {
		if err := durable.WriteFile(tracePath, rec.WriteTrace); err != nil {
			return err
		}
		log.Printf("wrote trace %s", tracePath)
	}
	if metricsPath != "" {
		if err := durable.WriteFile(metricsPath, rec.Registry().WritePrometheus); err != nil {
			return err
		}
		log.Printf("wrote metrics %s", metricsPath)
	}
	return nil
}

// serveResult is the count→serve handoff: the freshly counted spectrum is
// handed to the kserve layer without touching disk and served until
// SIGINT/SIGTERM. The pipeline's recorder registry is shared with the
// service, so GET /metrics exposes counting and serving metrics together.
func serveResult(addr string, cfg pipeline.Config, res *pipeline.Result, rec *obs.Recorder) error {
	db, err := exportDatabase(cfg, res)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	svc, err := kserve.New(db, kserve.Options{Enc: cfg.Enc, Registry: rec.Registry()})
	if err != nil {
		return err
	}
	log.Printf("serving %s distinct %d-mers", stats.Count(svc.Distinct()), svc.K())
	return kserve.ServeUntilInterrupt(addr, svc, log.Printf)
}

// exportDatabase gathers the per-rank tables' entries into one sorted
// database (the partitions are disjoint, so no merged table is needed).
func exportDatabase(cfg pipeline.Config, res *pipeline.Result) (*kcount.Database, error) {
	if len(res.Tables) == 0 {
		return nil, fmt.Errorf("no tables retained")
	}
	var flags uint32
	if cfg.Canonical {
		flags |= kcount.FlagCanonical
	}
	return kcount.FromTables(res.Tables, cfg.K, flags), nil
}

// writeKCD saves the counted spectrum as a KCD database, replacing path
// atomically.
func writeKCD(path string, cfg pipeline.Config, res *pipeline.Result) error {
	db, err := exportDatabase(cfg, res)
	if err != nil {
		return err
	}
	return durable.WriteFile(path, db.Write)
}

// reportGPUStats prints the kernel-level efficiency metrics aggregated
// across ranks and rounds.
func reportGPUStats(w io.Writer, res *pipeline.Result) {
	fmt.Fprintf(w, "\nGPU kernel statistics (all ranks):\n")
	t := stats.NewTable("kernel", "threads", "compute ops", "mem transactions", "atomics", "divergence", "coalescing")
	p := res.GPUParse
	c := res.GPUCount
	t.Row("parse", p.Threads, stats.Count(p.ComputeOps), stats.Count(p.MemTransactions),
		stats.Count(p.AtomicOps), fmt.Sprintf("%.2f×", p.DivergenceWaste()),
		fmt.Sprintf("%.2f", p.CoalescingEfficiency()))
	t.Row("count", c.Threads, stats.Count(c.ComputeOps), stats.Count(c.MemTransactions),
		stats.Count(c.AtomicOps), fmt.Sprintf("%.2f×", c.DivergenceWaste()),
		fmt.Sprintf("%.2f", c.CoalescingEfficiency()))
	fmt.Fprint(w, t)
}

// jsonReport is the machine-readable result schema of -json.
type jsonReport struct {
	Run        string            `json:"run"`
	K          int               `json:"k"`
	M          int               `json:"m,omitempty"`
	Window     int               `json:"window,omitempty"`
	Mode       string            `json:"mode"`
	Nodes      int               `json:"nodes"`
	Ranks      int               `json:"ranks"`
	Rounds     int               `json:"rounds"`
	ParseSec   float64           `json:"parse_sec"`
	ExchSec    float64           `json:"exchange_sec"`
	StagingSec float64           `json:"staging_sec"`
	HierSec    float64           `json:"hier_exchange_sec"`
	CountSec   float64           `json:"count_sec"`
	TotalSec   float64           `json:"total_sec"`
	Overlapped float64           `json:"overlapped_sec"`
	Items      uint64            `json:"items_exchanged"`
	Payload    uint64            `json:"payload_bytes"`
	Fabric     uint64            `json:"fabric_bytes"`
	Total      uint64            `json:"total_kmers"`
	Distinct   uint64            `json:"distinct_kmers"`
	Imbalance  float64           `json:"load_imbalance"`
	Streamed   bool              `json:"streamed,omitempty"`
	MemBudget  int64             `json:"mem_budget_bytes,omitempty"`
	Spilled    bool              `json:"spilled,omitempty"`
	SpillBins  int               `json:"spill_bins,omitempty"`
	InputReads uint64            `json:"input_reads,omitempty"`
	InputBases uint64            `json:"input_bases,omitempty"`
	Histogram  map[uint32]uint64 `json:"histogram"`
	Top        []jsonKmer        `json:"top_kmers,omitempty"`
	Build      obs.BuildInfo     `json:"build"`

	Resumed     bool        `json:"resumed,omitempty"`
	Recovered   bool        `json:"recovered,omitempty"`
	DeadRanks   []int       `json:"dead_ranks,omitempty"`
	Checkpoints int         `json:"checkpoints,omitempty"`
	Faults      *jsonFaults `json:"faults,omitempty"`
}

// jsonFaults is the run-wide fault and recovery tally (omitted when zero).
type jsonFaults struct {
	Killed    uint64 `json:"killed"`
	Delayed   uint64 `json:"delayed"`
	Dropped   uint64 `json:"dropped"`
	Corrupted uint64 `json:"corrupted"`
	BadFrames uint64 `json:"bad_frames"`
	Retries   uint64 `json:"retries"`
}

type jsonKmer struct {
	Kmer  string `json:"kmer"`
	Count uint32 `json:"count"`
}

func reportJSON(w io.Writer, cfg pipeline.Config, res *pipeline.Result, top int) error {
	rep := jsonReport{
		Run: res.Name, K: cfg.K, Mode: res.Mode.String(),
		Nodes: res.Nodes, Ranks: res.Ranks, Rounds: res.Rounds,
		ParseSec: res.Modeled.Parse.Seconds(), ExchSec: res.Modeled.Exchange.Seconds(), StagingSec: res.Staging.Seconds(),
		HierSec:  res.HierExchange.Seconds(),
		CountSec: res.Modeled.Count.Seconds(), TotalSec: res.Modeled.Total().Seconds(), Overlapped: res.ModeledTotal().Seconds(),
		Items: res.ItemsExchanged, Payload: res.PayloadBytes, Fabric: res.Volume.FabricBytes,
		Total: res.TotalKmers, Distinct: res.DistinctKmers,
		Imbalance: res.LoadImbalance(), Histogram: res.Histogram.Counts,
		Build: obs.ReadBuild(),
	}
	if cfg.Mode == pipeline.SupermerMode {
		rep.M, rep.Window = cfg.M, cfg.Window
	}
	if res.Streamed {
		rep.Streamed = true
		rep.MemBudget = res.MemBudget
	}
	if res.Spilled {
		rep.Spilled = true
		rep.SpillBins = res.SpillBins
	}
	rep.InputReads, rep.InputBases = res.InputReads, res.InputBases
	rep.Resumed = res.Resumed
	rep.Recovered = res.Recovered
	rep.DeadRanks = res.DeadRanks
	rep.Checkpoints = res.Checkpoints
	if tf := res.TotalFaults(); tf.Total()+tf.BadFrames+tf.Retries > 0 {
		rep.Faults = &jsonFaults{
			Killed: tf.Killed, Delayed: tf.Delayed, Dropped: tf.Dropped, Corrupted: tf.Corrupted,
			BadFrames: tf.BadFrames, Retries: tf.Retries,
		}
	}
	if top > len(res.TopKmers) {
		top = len(res.TopKmers)
	}
	for _, kv := range res.TopKmers[:top] {
		rep.Top = append(rep.Top, jsonKmer{dna.Kmer(kv.Key).String(cfg.Enc, cfg.K), kv.Count})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// statInputs records the checkpoint fingerprint of the input file list:
// each path with its current size. A resume under a renamed, grown, or
// truncated input fails the manifest fingerprint check instead of
// silently counting the wrong data.
func statInputs(paths []string) ([]recov.InputFile, error) {
	inputs := make([]recov.InputFile, len(paths))
	for i, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		inputs[i] = recov.InputFile{Path: p, Size: fi.Size()}
	}
	return inputs, nil
}

// splitPaths splits the comma-separated -in value into individual file
// paths, dropping empty segments so trailing commas are harmless.
func splitPaths(in string) []string {
	var paths []string
	for _, p := range strings.Split(in, ",") {
		if p = strings.TrimSpace(p); p != "" {
			paths = append(paths, p)
		}
	}
	return paths
}

// parseSize parses a byte size like "64M", "2G", "512k" or a plain byte
// count. An empty string means "use the default" and parses to 0. A
// negative size, or one whose byte count overflows int64, is an error.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	num, mult := s, int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		num, mult = s[:len(s)-1], 1<<10
	case 'm', 'M':
		num, mult = s[:len(s)-1], 1<<20
	case 'g', 'G':
		num, mult = s[:len(s)-1], 1<<30
	}
	n, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
	switch {
	case err != nil:
		return 0, fmt.Errorf("bad size %q (use a byte count or a K/M/G suffix)", s)
	case n < 0:
		return 0, fmt.Errorf("negative size %q", s)
	case n > math.MaxInt64/mult:
		return 0, fmt.Errorf("size %q overflows a 64-bit byte count", s)
	}
	return n * mult, nil
}

func report(w io.Writer, cfg pipeline.Config, res *pipeline.Result, top, histMax int) {
	fmt.Fprintf(w, "dedukt run: %s, k=%d", res.Name, cfg.K)
	if cfg.Mode == pipeline.SupermerMode {
		fmt.Fprintf(w, ", m=%d, window=%d, ordering=%s", cfg.M, cfg.Window, cfg.Ord.Name())
	}
	fmt.Fprintf(w, ", %d nodes × %d ranks\n\n", res.Nodes, res.Ranks/res.Nodes)

	t := stats.NewTable("phase", "Summit-projected time")
	t.Row("parse & process", res.Modeled.Parse)
	t.Row("exchange", fmt.Sprintf("%s (host staging %s, leader-routed %s)",
		stats.Seconds(res.Modeled.Exchange), stats.Seconds(res.Staging), stats.Seconds(res.HierExchange)))
	t.Row("count", res.Modeled.Count)
	t.Row("total (excl. I/O)", res.Modeled.Total())
	t.Row("total (overlapped)", res.ModeledTotal())
	fmt.Fprint(w, t)

	fmt.Fprintf(w, "\nexchanged: %s %ss (%s payload, %s over the fabric)\n",
		stats.Count(res.ItemsExchanged), res.Mode, stats.Bytes(res.PayloadBytes), stats.Bytes(res.Volume.FabricBytes))
	fmt.Fprintf(w, "counted:   %s k-mer instances, %s distinct, load imbalance %.2f\n",
		stats.Count(res.TotalKmers), stats.Count(res.DistinctKmers), res.LoadImbalance())
	if res.Streamed {
		fmt.Fprintf(w, "streamed:  %s reads (%s bases) in %d bounded rounds under a %s working-set budget\n",
			stats.Count(res.InputReads), stats.Count(res.InputBases), res.Rounds, stats.Bytes(uint64(res.MemBudget)))
	}
	if res.Spilled {
		fmt.Fprintf(w, "spilled:   counted out-of-core in two passes over %d disk bins per rank\n", res.SpillBins)
	}
	if res.Checkpoints > 0 {
		fmt.Fprintf(w, "checkpoint: %d rounds persisted\n", res.Checkpoints)
	}
	if res.Resumed {
		fmt.Fprintf(w, "resumed:   continued from a checkpoint; counts are exact\n")
	}
	if res.Recovered {
		fmt.Fprintf(w, "shrunk:    rank(s) %v died; survivors replayed and absorbed their shares — counts are exact\n", res.DeadRanks)
	}

	if tf := res.TotalFaults(); tf.Total()+tf.BadFrames+tf.Retries > 0 {
		fmt.Fprintf(w, "faults:    injected %d (%d killed, %d delayed, %d dropped, %d corrupted); observed %d bad frames, %d retries\n",
			tf.Total(), tf.Killed, tf.Delayed, tf.Dropped, tf.Corrupted, tf.BadFrames, tf.Retries)
		if tf.Retries > 0 {
			fmt.Fprintf(w, "recovered: every faulted round verified after retry; counts are exact\n")
		} else {
			fmt.Fprintf(w, "recovered: no payload damage; counts are exact\n")
		}
	}

	if len(res.Histogram.Counts) > 0 && histMax > 0 {
		fmt.Fprintf(w, "\nk-mer frequency spectrum (f: #distinct):\n")
		for _, f := range res.Histogram.Frequencies() {
			if int(f) > histMax {
				fmt.Fprintf(w, "  ...  (%d more classes)\n", remainingClasses(res.Histogram, histMax))
				break
			}
			fmt.Fprintf(w, "  %3d: %d\n", f, res.Histogram.Counts[f])
		}
	}
	if top > 0 && len(res.TopKmers) > 0 {
		fmt.Fprintf(w, "\nmost frequent k-mers:\n")
		n := top
		if n > len(res.TopKmers) {
			n = len(res.TopKmers)
		}
		for _, kv := range res.TopKmers[:n] {
			fmt.Fprintf(w, "  %s  %d\n", dna.Kmer(kv.Key).String(cfg.Enc, cfg.K), kv.Count)
		}
	}
}

func remainingClasses(h kcount.Histogram, histMax int) int {
	n := 0
	for f := range h.Counts {
		if int(f) > histMax {
			n++
		}
	}
	return n
}
