// Package pipeline assembles the substrates into the four end-to-end
// distributed k-mer counters the paper evaluates:
//
//   - CPU k-mer (Alg. 1) — the diBELLA-derived baseline (§III-A, §V-A),
//   - GPU k-mer (§III-B),
//   - GPU supermer (§IV, Alg. 2) — the paper's headline configuration,
//   - CPU supermer — an ablation beyond the paper isolating the supermer
//     optimization from GPU acceleration.
//
// Every variant runs the same three bulk-synchronous phases per rank —
// parse & process, exchange, count — over the mpisim communicator, computes
// bit-exact results, and reports a per-phase Summit-projected time
// breakdown (Fig. 3/7) plus the exchanged-volume and load-balance metrics
// (Tables II and III).
package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// Mode selects the exchanged unit.
type Mode int

const (
	// KmerMode ships individual packed k-mers (Alg. 1).
	KmerMode Mode = iota
	// SupermerMode ships minimizer-partitioned supermers (Alg. 2).
	SupermerMode
)

// modeNames are the names String prints and UnmarshalText (the -mode flag
// values) parses.
var modeNames = []string{KmerMode: "kmer", SupermerMode: "supermer"}

func (m Mode) String() string                { return nameOf(modeNames, int(m), "Mode") }
func (m Mode) MarshalText() ([]byte, error)  { return []byte(m.String()), nil }
func (m *Mode) UnmarshalText(b []byte) error { return parseName((*int)(m), b, modeNames, "mode") }

// Exchange named an exchange route. Every run ships the flat P×P
// Alltoallv and prices it leader-routed too (Result.HierExchange), so
// nothing reads it.
//
// Deprecated: it stays only because the benchmark module sets
// Config.Exchange.
type Exchange int

// The routes Exchange named.
//
// Deprecated: see Exchange.
const (
	ExchangeFlat Exchange = iota
	ExchangeHier
)

// nameOf returns names[i], or typ(i) for a value with no name.
func nameOf(names []string, i int, typ string) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", typ, i)
}

// parseName sets *dst to the index of the name b.
func parseName(dst *int, b []byte, names []string, what string) error {
	if i := slices.Index(names, string(b)); i >= 0 {
		*dst = i
		return nil
	}
	return fmt.Errorf("pipeline: unknown %s %q (want %s)", what, b, strings.Join(names, " or "))
}

// Config parameterizes one pipeline run.
type Config struct {
	// Layout selects the machine (nodes, ranks, GPU or CPU engine).
	Layout cluster.Layout
	// Mode selects k-mer or supermer exchange.
	Mode Mode
	// Enc is the base encoding; dna.Random is the paper's choice (§IV-A).
	Enc *dna.Encoding
	// K is the k-mer length (paper: 17).
	K int
	// M is the minimizer length (paper: 7 or 9); supermer mode only.
	M int
	// Window is the per-thread window in k-mer positions (paper: 15);
	// supermer mode only.
	Window int
	// Ord is the minimizer ordering; nil defaults to minimizer.Value{}.
	Ord minimizer.Ordering
	// Exchange is read by nothing: every run ships the paper's P×P
	// Alltoallv, and Result.HierExchange prices it leader-routed.
	//
	// Deprecated: it stays only because the benchmark module sets it.
	Exchange Exchange
	// Overlap is read by nothing: every run executes its rounds
	// bulk-synchronously, and Result.ModeledTotal prices every run as
	// overlapped.
	//
	// Deprecated: it stays only because the benchmark module sets it.
	Overlap bool
	// Canonical, when true, counts canonical k-mers (min of k-mer and its
	// reverse complement); k-mer mode only. The paper does not
	// canonicalize; provided as a library feature.
	Canonical bool
	// CPULoadLift evaluates the CPU baseline's load-dependent per-item
	// cost at items×CPULoadLift: scaled-down experiments set it to the
	// real-to-simulated dataset size ratio so the baseline's unit cost
	// sits at the paper's measured operating point (see
	// cluster.CPUModel.RankTimeLifted). Values ≤ 1 mean no lift.
	CPULoadLift float64
	// MemBudgetBytes bounds the live working-set of a run, and so sizes its
	// rounds (§III-A's memory-bounded multi-round execution): the per-rank
	// round chunk is sized so that every rank's round-loop buffers — the
	// staged base chunk, the packed send vectors, the framed wire arenas,
	// and the received payloads — together stay under the budget (see
	// streamBytesPerBase for the itemization). A budget of B bytes over P
	// ranks caps each rank's round at B/(P·streamBytesPerBase) bases: rank
	// i's chunk ends at the last read boundary within (i+1) caps of the
	// round's start (one read at least). The counter tables are excluded:
	// they hold the output spectrum, which no out-of-core counting scheme
	// can bound without spilling. 0 defaults to DefaultMemBudget on a
	// stream and to one round of even shares on Run.
	MemBudgetBytes int64
	// KeepTables retains each rank's counted table in Result.Tables (they
	// are discarded by default: at scale they dominate memory). Downstream
	// consumers — set operations, database export, serving — use them for
	// per-k-mer access beyond the histogram. Run collects the heap around
	// the ranks of such a run (see Run).
	KeepTables bool
	// BalancedPartition enables the frequency-aware minimizer-to-rank
	// assignment (supermer mode only): minimizer bins are weighted by
	// their k-mer load and LPT-assigned to ranks, implementing the
	// "better partitioning algorithm that maintains the locality and at
	// the same time partitions data evenly" the paper leaves as future
	// work (§VII). Requires m ≤ 12 and the in-memory Run.
	BalancedPartition bool
	// Fault configures the deterministic fault injector (see
	// internal/fault): seeded kill/straggler/drop/corrupt events against
	// the exchange path. The zero value injects nothing; the detection and
	// recovery machinery (checksummed frames, retry) runs either way.
	Fault fault.Config
	// ExchangeDeadline bounds how long a rank may wait inside one
	// collective for its peers before the run fails with
	// mpisim.ErrDeadline (a live-but-stalled peer; dead peers unblock
	// waiters immediately regardless). 0 disables the deadline.
	ExchangeDeadline time.Duration
	// Obs, when non-nil, records per-rank per-round phase spans, fault
	// instants, and run metrics (see internal/obs). nil disables
	// observability at zero cost to the hot paths.
	Obs *obs.Recorder
	// Ckpt configures round-granularity checkpointing and the restart
	// after a rank death (DESIGN.md §12). The zero value disables both,
	// so a rank death fails the run.
	Ckpt CkptConfig
	// Spill configures two-pass out-of-core counting (DESIGN.md §16):
	// pass 1 appends each rank's received items to minimizer-partitioned
	// disk bins instead of one full-spectrum table; pass 2 counts one bin
	// at a time into a bounded working-set table and merges the bin
	// spectra bit-identically. The zero value keeps counting in memory.
	Spill SpillConfig
}

// SpillConfig parameterizes the out-of-core counting mode.
type SpillConfig struct {
	// Dir enables spilling: each rank writes its per-bin files
	// (r####-b####.spill) into this directory during pass 1 and removes
	// them after pass 2. The directory must not hold spill state from
	// another run. Empty disables the subsystem.
	Dir string
	// Bins is the number of disk bins per rank (default 32, max 4096).
	// More bins mean a smaller pass-2 working set and more open files.
	Bins int
}

// defaultSpillBins balances pass-2 working-set size against per-rank
// file count; maxSpillBins caps the open-file and staging-buffer cost.
const (
	defaultSpillBins = 32
	maxSpillBins     = 4096
)

// bins returns the effective bin count, 0 when spilling is off (the
// Result convention: SpillBins echoes the mode).
func (c SpillConfig) bins() int {
	if c.Bins == 0 && c.Dir != "" {
		return defaultSpillBins
	}
	return c.Bins
}

// CkptConfig parameterizes the recovery subsystem of a run.
type CkptConfig struct {
	// Dir enables checkpointing: every Every rounds each rank persists
	// its spectrum slice plus a round/cursor manifest into this
	// directory (see internal/recover for the on-disk format), and after
	// a rank death the survivors restart from the last checkpoint instead
	// of failing the run. Empty disables the subsystem.
	Dir string
	// Every is the checkpoint period in rounds (default 4). Like
	// NoShrink, it needs Dir.
	Every int
	// NoShrink disables the restart after a rank death while keeping
	// periodic checkpoints: a rank death fails the run (resumable offline
	// via ResumeStream) instead of continuing on the survivors.
	NoShrink bool
	// Reopen opens a fresh source positioned at the given cursor. Every
	// restart from a checkpoint — after a rank death, and ResumeStream —
	// calls it once to re-feed the replayed rounds; required whenever Dir
	// is set on a stream (Run defaults it to re-seeking its reads). The
	// source must be a fastq.CursorSource.
	Reopen func(fastq.Cursor) (fastq.Source, error)
	// Inputs fingerprints the input file list (path + size); a resume
	// refuses a checkpoint taken over different inputs.
	Inputs []recov.InputFile
}

// every returns the effective checkpoint period.
func (c CkptConfig) every() int {
	if c.Every == 0 {
		return 4
	}
	return c.Every
}

// Entry names the call a configuration is validated for: which settings
// combine can depend on whether the input is preloaded, streamed, or
// resumed from a checkpoint.
type Entry int

const (
	// InMemory is Run over preloaded reads.
	InMemory Entry = iota
	// Streaming is RunStream over a read source.
	Streaming
	// Resuming is ResumeStream continuing a checkpoint.
	Resuming
)

// combinations is every rule about which Config settings combine and which
// entry point a combination needs (DESIGN.md, "Valid configurations"): a
// configuration for which a row's refused reports true is rejected with its
// reason. Validate walks it, and nothing else in the pipeline refuses a
// combination: a configuration it accepts runs. Each row is the reason for
// at least one rejection in TestAllVariantsMatchOracle, which runs every
// combination it accepts against the serial oracle.
var combinations = []struct {
	refused func(c *Config, e Entry) bool
	reason  string
}{
	{func(c *Config, _ Entry) bool { return c.Canonical && c.Mode != KmerMode },
		"canonical counting is supported in kmer mode only"},
	{func(c *Config, _ Entry) bool { return c.BalancedPartition && c.Mode != SupermerMode },
		"balanced partitioning applies to supermer mode only"},
	{func(c *Config, e Entry) bool { return c.BalancedPartition && e != InMemory },
		"balanced partitioning profiles the whole input before counting and cannot stream; preload the reads and use Run"},
	{func(c *Config, e Entry) bool { return c.Ckpt.Dir == "" && e == Resuming },
		"ResumeStream needs Ckpt.Dir"},
	{func(c *Config, _ Entry) bool { return c.Ckpt.Dir == "" && (c.Ckpt.Every != 0 || c.Ckpt.NoShrink) },
		"Ckpt.Every and Ckpt.NoShrink configure checkpointing and need Ckpt.Dir"},
	{func(c *Config, e Entry) bool { return c.Ckpt.Dir != "" && c.Ckpt.Reopen == nil && e != InMemory },
		"checkpointing a stream requires Ckpt.Reopen (recovery re-feeds the source)"},
	{func(c *Config, _ Entry) bool { return c.Spill.Bins != 0 && c.Spill.Dir == "" },
		"Spill.Bins set without Spill.Dir"},
	{func(c *Config, _ Entry) bool { return c.Spill.Dir != "" && c.KeepTables },
		"spill counting cannot keep per-rank tables (the full-spectrum table is exactly what spilling avoids)"},
	{func(c *Config, _ Entry) bool { return c.Spill.Dir != "" && c.Ckpt.Dir != "" },
		"spill counting and checkpointing are mutually exclusive (checkpoints persist the in-memory spectrum slice spilling never builds)"},
	{func(c *Config, _ Entry) bool { return c.Fault.FatalKill && c.Fault.FatalRank >= c.Layout.Ranks() },
		"the fatal kill targets a rank outside the world"},
}

// Validate checks the configuration for the given entry point: each
// setting's own range first, then every row of combinations.
func (c Config) Validate(e Entry) error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.Enc == nil {
		return fmt.Errorf("pipeline: nil encoding")
	}
	if c.K <= 0 || c.K > dna.MaxK {
		return fmt.Errorf("pipeline: k=%d outside (0,%d]", c.K, dna.MaxK)
	}
	if c.Mode == SupermerMode {
		mc := c.minimizerConfig()
		if err := mc.Validate(); err != nil {
			return err
		}
		if c.Window > 255 {
			return fmt.Errorf("pipeline: window=%d exceeds the wire format's 255", c.Window)
		}
		if c.BalancedPartition && c.M > 12 {
			return fmt.Errorf("pipeline: balanced partitioning requires m ≤ 12 (got %d)", c.M)
		}
	}
	if c.MemBudgetBytes < 0 {
		return fmt.Errorf("pipeline: negative MemBudgetBytes %d", c.MemBudgetBytes)
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if c.ExchangeDeadline < 0 {
		return fmt.Errorf("pipeline: negative ExchangeDeadline %v", c.ExchangeDeadline)
	}
	if c.Ckpt.Every < 0 {
		return fmt.Errorf("pipeline: negative checkpoint period %d", c.Ckpt.Every)
	}
	if c.Spill.Bins < 0 || c.Spill.Bins > maxSpillBins {
		return fmt.Errorf("pipeline: spill bins %d outside [0,%d]", c.Spill.Bins, maxSpillBins)
	}
	for _, rule := range combinations {
		if rule.refused(&c, e) {
			return fmt.Errorf("pipeline: %s", rule.reason)
		}
	}
	return nil
}

func (c Config) ordering() minimizer.Ordering {
	if c.Ord == nil {
		return minimizer.Value{}
	}
	return c.Ord
}

func (c Config) minimizerConfig() minimizer.Config {
	return minimizer.Config{K: c.K, M: c.M, Window: c.Window, Ord: c.ordering()}
}

// tableLoad is the device table's load ceiling (§III-B.3's open-addressing
// table at ≤ 50 % occupancy).
const tableLoad = 0.5

// DefaultMemBudget is the streaming working-set budget when
// Config.MemBudgetBytes is zero: 256 MiB across all simulated ranks.
const DefaultMemBudget = 256 << 20

// streamBytesPerBase is the modeled live bytes one input base pins across
// a streaming rank's round-loop buffers, used to translate a memory
// budget into a per-rank round chunk. Itemized per base: the staged
// chunk, one buffer per round parity (~3B), the packed send words or wire
// bytes plus the checksummed frame arena, one per round parity (~2×8B:
// k-mer mode emits up to one 8-byte word per base), and the received
// payload views (~2×8B). The constant deliberately rounds up — streaming
// wants to be safely under budget, not precisely at it — and stays at 48,
// which fixes the round count of every budgeted run.
const streamBytesPerBase = 48

// memBudget returns the effective streaming budget.
func (c Config) memBudget() int64 {
	if c.MemBudgetBytes == 0 {
		return DefaultMemBudget
	}
	return c.MemBudgetBytes
}

// streamRoundBases derives the per-rank round chunk cap from the memory
// budget: the budget is shared by all ranks' live round buffers, each of
// which pins streamBytesPerBase per chunk base.
func (c Config) streamRoundBases() int {
	return max(int(c.memBudget()/int64(c.Layout.Ranks()*streamBytesPerBase)), 1)
}

// Default returns the paper's operating point on the given layout: k=17,
// m=7, window=15, random encoding, value ordering.
func Default(layout cluster.Layout, mode Mode) Config {
	return Config{
		Layout: layout,
		Mode:   mode,
		Enc:    &dna.Random,
		K:      17,
		M:      7,
		Window: 15,
		Ord:    minimizer.Value{},
	}
}

// PhaseBreakdown is the three-module runtime split of Figs. 3 and 7.
type PhaseBreakdown struct {
	// Parse is "parse & process k-mers" (GPU kernels or CPU loop).
	Parse time.Duration
	// Exchange is "exchange (incl. MPI call)": host↔device staging
	// (Result.Staging) plus the fabric time of Alltoall + Alltoallv (none
	// on a one-node world: only fabric bytes are priced).
	Exchange time.Duration
	// Count is "k-mer counter" (table insertion).
	Count time.Duration
}

// Total returns the end-to-end modeled time (excluding I/O, as the paper
// reports).
func (p PhaseBreakdown) Total() time.Duration { return p.Parse + p.Exchange + p.Count }

// Result carries everything the experiments need from one run.
type Result struct {
	// Name echoes the layout name and mode.
	Name string
	// Ranks and Nodes record the world geometry.
	Ranks, Nodes int
	// Mode is the exchanged unit.
	Mode Mode
	// GPU reports whether the GPU engine ran.
	GPU bool
	// Modeled is the Summit-projected phase breakdown.
	Modeled PhaseBreakdown
	// Staging is the host↔device staging term Modeled.Exchange includes:
	// the largest per-rank sum of the GPU engine's pinned-buffer copies
	// (input chunks in, send rows out, received rows in). GPUDirect
	// (§III-B.2) moves payloads NIC↔GPU without them, so
	// Modeled.Exchange−Staging is the GPUDirect exchange and
	// Modeled.Total()−Staging the GPUDirect bulk-synchronous total. 0 on
	// the CPU engine.
	Staging time.Duration
	// HierExchange is Modeled.Exchange with each round's attempt-0 payload
	// Alltoallv priced leader-routed (DESIGN.md §15): off-node frames
	// gathered onto node leaders over NVLink, each behind a recordHeader,
	// one L×L Alltoallv between the L = ⌈P/RanksPerNode⌉ leaders, and a
	// scatter off the destination's leader. The count announcement,
	// retries and staging are priced as they ran. It equals
	// Modeled.Exchange on one node.
	HierExchange time.Duration
	// Wall is the wall-clock time of the whole simulated run (Go time —
	// useful only for judging simulation cost, not Summit performance).
	Wall time.Duration
	// ItemsExchanged counts exchanged units (k-mers or supermers) — the
	// quantity of Table II.
	ItemsExchanged uint64
	// PayloadBytes is the exchanged payload volume including supermer
	// length bytes.
	PayloadBytes uint64
	// Volume sums the traffic of the payload Alltoallv collectives; its
	// MaxNodeBytes is the largest of theirs.
	Volume mpisim.VolumeStats
	// AlltoallvTime is the fabric time of the payload exchange alone
	// (Fig. 8 compares exactly this).
	AlltoallvTime time.Duration
	// TotalKmers is the counted multiset size; DistinctKmers the table
	// cardinality.
	TotalKmers, DistinctKmers uint64
	// PerRankKmers is the number of k-mer instances counted on each rank
	// (Table III's load column).
	PerRankKmers []uint64
	// Histogram is the global k-mer frequency spectrum.
	Histogram kcount.Histogram
	// TopKmers holds the globally most frequent k-mers (up to 64), counts
	// descending — the "k-mers of scientific interest by frequency" query
	// of §II-A.
	TopKmers []kcount.KV
	// ParseCompute and CountCompute expose engine-level detail for the
	// ablation benches (GPU: divergence-adjusted ops; CPU: metered ops).
	ParseCompute, CountCompute uint64
	// GPUParse and GPUCount aggregate the kernel statistics across ranks
	// and rounds (zero-valued on CPU runs): memory transactions after
	// coalescing, divergence waste, atomic counts — the efficiency
	// metrics §III-B's kernel design targets.
	GPUParse, GPUCount gpusim.KernelStats
	// Rounds is the number of parse-exchange-count rounds executed
	// (1 unless a memory budget forced multi-round operation).
	Rounds int
	// Streamed reports that the run ingested its input out-of-core via
	// RunStream; MemBudget echoes the effective memory budget it ran
	// under (on Run, Config.MemBudgetBytes: 0 without one).
	Streamed  bool
	MemBudget int64
	// Spilled reports that counting ran the two-pass out-of-core path
	// (Config.Spill); SpillBins echoes the per-rank bin count it used
	// (0 for in-memory counting).
	Spilled   bool
	SpillBins int
	// InputReads and InputBases count the ingested records and bases —
	// for streamed runs the only place the input size is known, since
	// the dataset is never materialized.
	InputReads, InputBases uint64
	// Tables holds each rank's counted partition when Config.KeepTables is
	// set (nil otherwise). Partitions are disjoint; merge with
	// kcount.Table.Merge for a global table.
	Tables []*kcount.Table
	// Incomplete is always false: a run returns the exact spectrum or an
	// error (ErrExchangeLost once a round's retries are spent). It stays
	// only because the benchmark module reads it.
	Incomplete bool
	// Faults is the per-rank fault and recovery tally (indexed by rank):
	// injected kills/delays/drops/corruptions plus observed bad frames and
	// retried rounds. All-zero on a healthy run.
	Faults []fault.Counts
	// Checkpoints is the number of round checkpoints persisted (0 when
	// Config.Ckpt is unset).
	Checkpoints int
	// Recovered reports that the run restarted after a rank death: one
	// or more ranks died, the survivors continued from the last
	// checkpoint, and the counts are nevertheless full and exact.
	// DeadRanks lists the original ids of the ranks lost along the way.
	Recovered bool
	DeadRanks []int
	// Resumed reports that this run continued a checkpoint via
	// ResumeStream rather than starting from the beginning of the input.
	Resumed bool
}

// ModeledTotal returns the run's modeled time with each round's exchange
// hidden behind its neighbours' compute: the overlapped price of the
// rounds Modeled.Total adds up bulk-synchronously. Over R rounds, C is the
// round compute (parse, plus count unless the run spilled) and E the
// exchange. Equal rounds pipeline to (R−1)/R·max(C, E) + (C+E)/R: R−1
// steady-state rounds at the longer of the two, plus one round's fill and
// drain. A spilled run's count is pass 2, which follows every exchange, so
// it adds in full. The price lies between max(C, E) plus pass 2 and
// Modeled.Total, and equals Modeled.Total on one round.
func (r *Result) ModeledTotal() time.Duration {
	compute, drain := r.Modeled.Parse+r.Modeled.Count, time.Duration(0)
	if r.Spilled {
		compute, drain = r.Modeled.Parse, r.Modeled.Count
	}
	rounds := time.Duration(max(r.Rounds, 1))
	return ((rounds-1)*max(compute, r.Modeled.Exchange)+compute+r.Modeled.Exchange)/rounds + drain
}

// TotalFaults folds the per-rank fault tallies into one.
func (r *Result) TotalFaults() fault.Counts {
	var sum fault.Counts
	for _, c := range r.Faults {
		sum.Add(c)
	}
	return sum
}

// MergedTable folds all retained rank tables into one (nil when the run did
// not keep tables).
func (r *Result) MergedTable() *kcount.Table {
	if len(r.Tables) == 0 {
		return nil
	}
	out := kcount.NewTable(int(r.DistinctKmers), kcount.Linear)
	for _, t := range r.Tables {
		if t != nil {
			out.Merge(t)
		}
	}
	return out
}

// LoadImbalance returns max/avg of PerRankKmers (Table III).
func (r *Result) LoadImbalance() float64 {
	if len(r.PerRankKmers) == 0 {
		return 0
	}
	var sum, max uint64
	for _, v := range r.PerRankKmers {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	avg := float64(sum) / float64(len(r.PerRankKmers))
	return float64(max) / avg
}

// InsertionRate returns counted k-mers per second of modeled compute time
// (parse+count, excluding exchange) — the y-axis of Fig. 9.
func (r *Result) InsertionRate() float64 {
	t := (r.Modeled.Parse + r.Modeled.Count).Seconds()
	if t == 0 {
		return 0
	}
	return float64(r.TotalKmers) / t
}
