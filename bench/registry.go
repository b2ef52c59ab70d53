package main

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// runSeconds is how long one run measures; BENCHMARK.json carries the same
// number and the driver passes it back as --seconds.
const runSeconds = 8

// heldOutSeed is reserved for later claims (choosing-metrics §6.3): nothing
// in this directory was sized or tuned with it.
const heldOutSeed = 20240917

// Layer groups of the counting probes: a traced run executes the probes of
// the layers its workload exercises and reports the rest as 0. The serving
// workloads run the serving probes (serving.go) instead.
const (
	layerFastq     = "fastq"
	layerDNA       = "dna"
	layerMinimizer = "minimizer"
	layerKernels   = "kernels"
	layerFrame     = "kernels.frame" // runs on the CPU engine too
	layerGPUSim    = "gpusim"
	layerMPISim    = "mpisim"
	layerKCount    = "kcount"
)

type workloadKind int

const (
	counting workloadKind = iota
	serving
)

// workloadSpec names one workload and says why it exists. Names are fixed:
// later issues cite them.
type workloadSpec struct {
	Name    string
	Why     string
	Kind    workloadKind
	Dataset string
	Layers  []string // counting: the probe groups a traced run executes

	Streamed bool    // counting: FASTQ fixtures on disk, RunStream, spill
	Batch    bool    // serving: 64-key POST /batch instead of one-key GET /kmer
	ZipfS    float64 // serving: Zipf exponent of the key draws, 0 = uniform
	Absent   float64 // serving: share of drawn keys the database does not hold
}

var workloads = []workloadSpec{
	{
		Name: "gpu-supermer-lr8", Kind: counting, Dataset: "lr8",
		Why:    "paper headline: GPU engine, supermer exchange, one round; minimizer scan, gpusim accounting and AtomicTable inserts dominate",
		Layers: []string{layerDNA, layerMinimizer, layerKernels, layerFrame, layerGPUSim, layerMPISim, layerKCount},
	},
	{
		Name: "gpu-kmer-lr8", Kind: counting, Dataset: "lr8",
		Why:    "same input in k-mer mode: bypasses minimizer/supermer code and ships 8 B per k-mer, so exchange and table changes show, minimizer changes must not",
		Layers: []string{layerDNA, layerKernels, layerFrame, layerGPUSim, layerMPISim, layerKCount},
	},
	{
		Name: "cpu-kmer-lr8", Kind: counting, Dataset: "lr8",
		Why:    "CPU engine, k-mer mode: bypasses gpusim and uses kcount.Table; the control for every simulator-accounting optimisation",
		Layers: []string{layerDNA, layerFrame, layerMPISim, layerKCount},
	},
	{
		Name: "ooc-spill-hs54", Kind: counting, Dataset: "hs54", Streamed: true,
		Why:    "streamed FASTQ+gzip, 12-16 rounds, hierarchical overlapped exchange, spill write and replay: the only workload with decode, per-round collectives and disk on the clock",
		Layers: []string{layerFastq, layerDNA, layerMinimizer, layerKernels, layerFrame, layerGPUSim, layerMPISim, layerKCount},
	},
	{
		Name: "serve-batch-uniform", Kind: serving, Dataset: "lr8", Batch: true, Absent: absentShare,
		Why: "64-key POST /batch, uniform keys over 2 M entries plus 10% absent: the LRU is bypassed; batch path, routing split and JSON codec dominate",
	},
	{
		Name: "serve-point-zipf", Kind: serving, Dataset: "lr8", ZipfS: zipfExponent,
		Why: "one-key GET /kmer, Zipf s=1.1 with the hot set inside the LRU: cache, singleflight and micro-batch wait dominate, the reverse of the batch workload",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer metrics,
// which are not gated). Moves says which end-to-end metric a layer metric
// should move, and on which workload.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Help   string
	Moves  string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd lists what the driver gates. BENCHMARK.json carries one list for
// all workloads, the driver expects every metric of it from every workload,
// never 0, and it takes each metric's spread over ten runs on ten different
// seeds. peak_rss_mb keeps the issue's bound, and by the issue's rule a
// metric that cannot meet its bound on this box is a per-layer metric, not a
// wider bound:
//
//   - every timing (the issue's mbases_per_s, cpu_s_per_gbase, lookups_per_s,
//     request_p50_us, cpu_s_per_mlookup) spreads by 7-17 % from run to run
//     against a bound of 10 %, however many repetitions a run takes;
//   - the exact counts (modeled_s, payload_bytes_per_kmer, load_imbalance)
//     repeat to the last digit on one seed but move by 2.4 %, 0.5 % and 5.1 %
//     across seeds against bounds of 1 %, 0.5 % and 1 %;
//   - error_rate is always 0 and lives in the result's attempted/failed.
//
// They are measured and printed by every run under their layer's name
// (pipeline.*, kcluster.*). setup_s is the exception: the contract requires
// it, so it cannot be demoted, and the driver also refuses a benchmark whose
// second set of ten runs has a median worse than the first set's by more
// than the bound. Two such sets of the same code, twenty minutes apart, read
// 17 %, 15 % and 12 % worse on three workloads, so the issue's 15 % cannot
// hold here and setup_s gets the largest bound the contract allows. README.md
// has the table and the spreads.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25,
		Help: "median of the repeated set-ups (dataset generation, oracle count, producing count, FASTQ/KCD/key writes) plus the child's load (reads or KCD, cluster start, request pools)"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10,
		Help: "ru_maxrss of the child, which loads the generated files and runs the workload, at the end of the timed work"},
}

var perLayer = []metricSpec{
	{Name: "fastq.decode_mb_per_s", Unit: "MB/s", Better: higher, Help: "fastq.NewReader over in-memory FASTQ bytes", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "fastq.stream_gz_mb_per_s", Unit: "MB/s", Better: higher, Help: "fastq.OpenStream over the gzip fixture, decoded MB/s", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "dna.encode_mbases_per_s", Unit: "Mbases/s", Better: higher, Help: "Encoding.EncodeSeq", Moves: "pipeline.mbases_per_s on all counting (small share)"},
	{Name: "minimizer.of_mkmers_per_s", Unit: "Mkmers/s", Better: higher, Help: "minimizer.Of per k-mer (the naive scan BuildSupermers uses)", Moves: "pipeline.mbases_per_s, pipeline.cpu_s_per_gbase on gpu-supermer-lr8, ooc-spill-hs54"},
	{Name: "minimizer.scanner_mkmers_per_s", Unit: "Mkmers/s", Better: higher, Help: "minimizer.NewScanner rolling scan", Moves: "pipeline.mbases_per_s, pipeline.cpu_s_per_gbase on gpu-supermer-lr8, ooc-spill-hs54"},
	{Name: "minimizer.build_windowed_mbases_per_s", Unit: "Mbases/s", Better: higher, Help: "minimizer.BuildWindowed", Moves: "pipeline.mbases_per_s, pipeline.cpu_s_per_gbase on gpu-supermer-lr8, ooc-spill-hs54"},
	{Name: "kernels.parse_kmers_mbases_per_s", Unit: "Mbases/s", Better: higher, Help: "kernels.ParseKmers on a V100 device, pooled scratch", Moves: "pipeline.mbases_per_s on gpu-kmer-lr8"},
	{Name: "kernels.build_supermers_mbases_per_s", Unit: "Mbases/s", Better: higher, Help: "kernels.BuildSupermers on a V100 device, pooled scratch", Moves: "pipeline.mbases_per_s on gpu-supermer-lr8, ooc-spill-hs54"},
	{Name: "kernels.count_kmers_mkmers_per_s", Unit: "Mkmers/s", Better: higher, Help: "kernels.CountKmers into an AtomicTable", Moves: "pipeline.mbases_per_s on gpu-kmer-lr8"},
	{Name: "kernels.count_supermers_mkmers_per_s", Unit: "Mkmers/s", Better: higher, Help: "kernels.CountSupermers into an AtomicTable", Moves: "pipeline.mbases_per_s on gpu-supermer-lr8, ooc-spill-hs54"},
	{Name: "kernels.frame_mb_per_s", Unit: "MB/s", Better: higher, Help: "AppendFrameBytes+UnframeBytes and AppendFrameWords+UnframeWords", Moves: "pipeline.mbases_per_s on gpu-kmer-lr8 (4x the bytes)"},
	{Name: "gpusim.launch_ns_per_thread_empty", Unit: "ns", Better: lower, Help: "Device.Launch with an empty body", Moves: "pipeline.mbases_per_s on the three GPU workloads"},
	{Name: "gpusim.account_ns_per_access_coalesced", Unit: "ns", Better: lower, Help: "Device.Launch, one coalesced 4 B load per lane", Moves: "pipeline.mbases_per_s on the three GPU workloads"},
	{Name: "gpusim.account_ns_per_access_strided", Unit: "ns", Better: lower, Help: "Device.Launch, one 128 B-strided load per lane", Moves: "pipeline.mbases_per_s on the three GPU workloads"},
	{Name: "gpusim.engine_overhead_x", Unit: "x", Better: lower, Help: "gpu-kmer-lr8 median wall / the same count on the CPU engine (time in measuring vs doing)", Moves: "diagnostic"},
	{Name: "gpusim.parse_transactions_per_kmer", Unit: "count", Better: lower, Help: "GPUParse.MemTransactions / TotalKmers", Moves: "pipeline.modeled_total_s on GPU workloads"},
	{Name: "gpusim.count_transactions_per_kmer", Unit: "count", Better: lower, Help: "GPUCount.MemTransactions / TotalKmers", Moves: "pipeline.modeled_total_s on GPU workloads"},
	{Name: "gpusim.count_atomics_per_kmer", Unit: "count", Better: lower, Help: "GPUCount.AtomicOps / TotalKmers", Moves: "pipeline.modeled_total_s on GPU workloads"},
	{Name: "gpusim.divergence_waste", Unit: "x", Better: lower, Help: "parse+count ComputeOps / RawComputeOps", Moves: "pipeline.modeled_total_s on GPU workloads"},
	{Name: "mpisim.alltoallv_mb_per_s", Unit: "MB/s", Better: higher, Help: "AlltoallvBytes, P=12, 64 KiB per pair", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "mpisim.ialltoallv_mb_per_s", Unit: "MB/s", Better: higher, Help: "IAlltoallvBytes+Wait, P=12, 64 KiB per pair", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "mpisim.node_alltoallv_mb_per_s", Unit: "MB/s", Better: higher, Help: "NodeAlltoallvBytes, P=12, 6 per node, 64 KiB per pair", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "mpisim.collective_us_small", Unit: "us", Better: lower, Help: "AlltoallvBytes, P=12, 8 B per pair", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "kcount.table_add_mkeys_per_s", Unit: "Mkeys/s", Better: higher, Help: "Table.Add over the rank-0 k-mer multiset", Moves: "pipeline.mbases_per_s on cpu-kmer-lr8"},
	{Name: "kcount.atomic_add_mkeys_per_s", Unit: "Mkeys/s", Better: higher, Help: "AtomicTable.Add, one goroutine", Moves: "pipeline.mbases_per_s on GPU workloads"},
	{Name: "kcount.atomic_add_par_mkeys_per_s", Unit: "Mkeys/s", Better: higher, Help: "AtomicTable.Add from nproc goroutines", Moves: "pipeline.mbases_per_s on GPU workloads"},
	{Name: "kcount.table_get_mkeys_per_s", Unit: "Mkeys/s", Better: higher, Help: "Table.Get over the same keys", Moves: "pipeline.mbases_per_s on cpu-kmer-lr8"},
	{Name: "kcount.probes_per_add", Unit: "count", Better: lower, Help: "AtomicTable.Probes() / adds", Moves: "pipeline.mbases_per_s, pipeline.modeled_total_s on GPU workloads"},
	{Name: "kcount.topk_ms", Unit: "ms", Better: lower, Help: "Table.TopK(64) on the probe table", Moves: "pipeline.mbases_per_s on all counting"},
	{Name: "kcount.histogram_ms", Unit: "ms", Better: lower, Help: "Table.Histogram() on the probe table", Moves: "pipeline.mbases_per_s on all counting"},
	{Name: "kcount.kcd_write_mb_per_s", Unit: "MB/s", Better: higher, Help: "Database.Write", Moves: "setup_s on serving"},
	{Name: "kcount.kcd_read_mb_per_s", Unit: "MB/s", Better: higher, Help: "kcount.ReadDatabase", Moves: "setup_s on serving"},
	{Name: "kcount.db_get_ns", Unit: "ns", Better: lower, Help: "Database.Get, the floor under every lookup", Moves: "kcluster.lookups_per_s on serving"},
	{Name: "pipeline.parse_wall_share", Unit: "share", Better: lower, Help: "rank time inside parse spans / (ranks x run wall)", Moves: "explains pipeline.mbases_per_s"},
	{Name: "pipeline.stage_h2d_wall_share", Unit: "share", Better: lower, Help: "same for stage_h2d", Moves: "explains pipeline.mbases_per_s"},
	{Name: "pipeline.exchange_wall_share", Unit: "share", Better: lower, Help: "same for exchange (gather, leader_alltoall, scatter, retry folded in)", Moves: "explains pipeline.mbases_per_s"},
	{Name: "pipeline.count_wall_share", Unit: "share", Better: lower, Help: "same for count", Moves: "explains pipeline.mbases_per_s"},
	{Name: "pipeline.spill_write_wall_share", Unit: "share", Better: lower, Help: "same for spill_write", Moves: "explains pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "pipeline.bin_count_wall_share", Unit: "share", Better: lower, Help: "same for bin_count", Moves: "explains pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "pipeline.other_wall_share", Unit: "share", Better: lower, Help: "remainder: rank time outside every span (partitioning, snapshot, top-k, aggregation)", Moves: "explains pipeline.mbases_per_s"},
	{Name: "pipeline.mbases_per_s", Unit: "Mbases/s", Better: higher, Help: "input Mbases / median wall of one full count, untraced repetitions (the issue's mbases_per_s)", Moves: "what a user waits for; every counting layer moves it by at most its wall share"},
	{Name: "pipeline.cpu_s_per_gbase", Unit: "s/Gbase", Better: lower, Help: "user+sys CPU seconds of the median untraced repetition (getrusage) per Gbase (the issue's cpu_s_per_gbase)", Moves: "follows pipeline.mbases_per_s: 12 ranks on 2 cores leave nothing idle"},
	{Name: "pipeline.modeled_total_s", Unit: "s", Better: lower, Help: "Result.ModeledTotal(), the Summit-projected time: the paper's clock, host-independent, exact per seed", Moves: "the issue's modeled_s; only exact counts move it"},
	{Name: "pipeline.payload_bytes_per_kmer", Unit: "B/kmer", Better: lower, Help: "Result.PayloadBytes / TotalKmers (Table II), exact per seed", Moves: "pipeline.modeled_exchange_s; pipeline.mbases_per_s on gpu-kmer-lr8"},
	{Name: "pipeline.load_imbalance", Unit: "x", Better: lower, Help: "Result.LoadImbalance(), max/avg k-mers per rank (Table III), exact per seed", Moves: "bounds what per-rank work buys pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "pipeline.modeled_parse_s", Unit: "s", Better: lower, Help: "Result.Modeled.Parse", Moves: "pipeline.modeled_total_s"},
	{Name: "pipeline.modeled_exchange_s", Unit: "s", Better: lower, Help: "Result.Modeled.Exchange", Moves: "pipeline.modeled_total_s"},
	{Name: "pipeline.modeled_count_s", Unit: "s", Better: lower, Help: "Result.Modeled.Count", Moves: "pipeline.modeled_total_s"},
	{Name: "pipeline.alltoallv_modeled_s", Unit: "s", Better: lower, Help: "Result.AlltoallvTime", Moves: "pipeline.modeled_total_s"},
	{Name: "pipeline.rounds", Unit: "count", Better: lower, Help: "Result.Rounds", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "pipeline.items_exchanged", Unit: "count", Better: lower, Help: "Result.ItemsExchanged", Moves: "pipeline.payload_bytes_per_kmer"},
	{Name: "pipeline.payload_bytes", Unit: "count", Better: lower, Help: "Result.PayloadBytes", Moves: "pipeline.payload_bytes_per_kmer"},
	{Name: "pipeline.spill_write_mb_per_s", Unit: "MB/s", Better: higher, Help: "spilled wire bytes / rank time inside spill_write spans", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "pipeline.bin_count_mkmers_per_s", Unit: "Mkmers/s", Better: higher, Help: "TotalKmers / rank time inside bin_count spans", Moves: "pipeline.mbases_per_s on ooc-spill-hs54"},
	{Name: "pipeline.allocs_per_run", Unit: "count", Better: lower, Help: "runtime.MemStats.Mallocs delta per repetition, median", Moves: "pipeline.cpu_s_per_gbase"},
	{Name: "pipeline.alloc_mb_per_run", Unit: "MB", Better: lower, Help: "runtime.MemStats.TotalAlloc delta per repetition, median", Moves: "pipeline.cpu_s_per_gbase"},
	{Name: "pipeline.peak_rss_mb", Unit: "MB", Better: lower, Help: "the end-to-end peak_rss_mb, repeated beside the allocation counters", Moves: "peak_rss_mb"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower, Help: "traced vs untraced median wall", Moves: "diagnostic"},
	{Name: "obs.spans_per_run", Unit: "count", Better: lower, Help: "obs.Recorder spans in one traced repetition", Moves: "diagnostic"},
	{Name: "kserve.lookup_key_p50_us", Unit: "us", Better: lower, Help: "Service.LookupKey, uniform keys, nproc closed-loop callers", Moves: "kcluster.request_p50_us on serve-point-zipf"},
	{Name: "kserve.lookup_key_hot_p50_us", Unit: "us", Better: lower, Help: "Service.LookupKey, Zipf keys (cache hits)", Moves: "kcluster.request_p50_us on serve-point-zipf"},
	{Name: "kserve.lookup_keys64_p50_us", Unit: "us", Better: lower, Help: "Service.LookupKeysInto, 64 uniform keys", Moves: "kcluster.lookups_per_s on serve-batch-uniform"},
	{Name: "kserve.http_batch_p50_us", Unit: "us", Better: lower, Help: "POST /batch of 64 keys straight to one replica, no proxy", Moves: "kcluster.request_p50_us on serve-batch-uniform"},
	{Name: "kserve.cache_hit_ratio", Unit: "share", Better: higher, Help: "kserve_cache_hits / (hits+misses) over the measured window, both replicas", Moves: "kcluster.lookups_per_s on serve-point-zipf"},
	{Name: "kserve.load_s", Unit: "s", Better: lower, Help: "kserve.LoadDatabases + kserve.New", Moves: "setup_s on serving"},
	{Name: "kcluster.proxy_added_p50_us", Unit: "us", Better: lower, Help: "via-proxy p50 minus direct-replica p50, same request shape", Moves: "kcluster.request_p50_us, kcluster.cpu_s_per_mlookup on serving"},
	{Name: "kcluster.lookups_per_s", Unit: "1/s", Better: higher, Help: "verified lookups / measured window (the issue's lookups_per_s)", Moves: "what the cluster delivers to nproc closed-loop clients"},
	{Name: "kcluster.cpu_s_per_mlookup", Unit: "s/Mlookup", Better: lower, Help: "process CPU seconds over the window per million verified lookups, clients included (the issue's cpu_s_per_mlookup)", Moves: "moves apart from the latency: that is mostly waiting"},
	{Name: "kcluster.request_p50_us", Unit: "us", Better: lower, Help: "median request latency over the measured window (the issue's request_p50_us)", Moves: "kcluster.lookups_per_s, its reciprocal in a closed loop up to the tail"},
	{Name: "kcluster.request_p99_us", Unit: "us", Better: lower, Help: "p99 request latency over the measured window", Moves: "kcluster.request_p50_us on serving"},
	{Name: "kcluster.hedges_per_kreq", Unit: "count", Better: lower, Help: "kcluster_hedges_total per thousand requests", Moves: "kcluster.cpu_s_per_mlookup on serving"},
	{Name: "kcluster.retries_per_kreq", Unit: "count", Better: lower, Help: "kcluster_retries_total per thousand requests", Moves: "kcluster.cpu_s_per_mlookup on serving"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateRegistry enforces the limits BENCHMARK.json is refused outside of.
func validateRegistry(ws []workloadSpec, e2e, layers []metricSpec) error {
	if len(ws) < 2 || len(ws) > 8 {
		return fmt.Errorf("%d workloads, want 2-8", len(ws))
	}
	if len(e2e) < 1 || len(e2e) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1-16", len(e2e))
	}
	if len(layers) < 1 || len(layers) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1-128", len(layers))
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range ws {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why has %d characters, want 1-200", w.Name, len(w.Why))
		}
	}
	var setup *metricSpec
	maxBound := 0.0
	for i, m := range append(append([]metricSpec(nil), e2e...), layers...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != higher && m.Better != lower {
			return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if i >= len(e2e) {
			continue
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		if m.Name == "setup_s" {
			setup = &e2e[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	if setup.Bound < maxBound {
		return fmt.Errorf("setup_s bound %v is not the largest (%v)", setup.Bound, maxBound)
	}
	return nil
}

// manifestJSON renders BENCHMARK.json from the registry, so the file and
// the program cannot name different metrics.
func manifestJSON() ([]byte, error) {
	if err := validateRegistry(workloads, endToEnd, perLayer); err != nil {
		return nil, err
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
