package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
)

// variant is one combination of the settings TestAllVariantsMatchOracle
// enumerates.
type variant struct {
	gpu        bool
	mode       Mode
	odd        bool
	ragged     bool
	canonical  bool
	balanced   bool
	multiRound bool
	keep       bool
	spill      bool
	ckpt       bool
	faults     bool
	entry      entry
	// stray is one setting the combination does not otherwise use, or ""
	// (see strays).
	stray string
}

// entry is the call a variant runs through.
type entry int

const (
	viaRun entry = iota
	viaStream
	// viaResume is ResumeStream continuing a checkpoint; only checkpointing
	// variants have one.
	viaResume
)

// strays are the settings that only ever appear alone in the enumeration.
// Most are refused wherever they appear, the rest of the combination
// leaving them meaningless: a checkpoint period or a spill bin count
// without its directory, a fatal kill outside the world. One is accepted on
// Run, which must count exactly under it: a memory budget (it caps Run's
// rounds as a stream's; a multi-round Run already has one). One is accepted
// wherever it applies: a rank death at killRound in a checkpointing run of
// several rounds, which the survivors restart from the last checkpoint, and
// which must count exactly too.
var strays = []struct {
	name    string
	applies func(v variant) bool
	apply   func(c *Config)
}{
	{"", func(variant) bool { return true }, func(*Config) {}},
	{"mem-budget", func(v variant) bool { return v.entry == viaRun && !v.multiRound }, func(c *Config) { c.MemBudgetBytes = streamBudget }},
	{"ckpt-every", func(v variant) bool { return !v.ckpt }, func(c *Config) { c.Ckpt.Every = 1 }},
	{"spill-bins", func(v variant) bool { return !v.spill }, func(c *Config) { c.Spill.Bins = 4 }},
	{"restart", func(v variant) bool {
		return v.ckpt && (v.entry == viaStream || v.entry == viaRun && v.multiRound)
	}, func(c *Config) { c.Fault.FatalKill, c.Fault.FatalRank, c.Fault.FatalRound = true, 1, killRound }},
	{"fatal-rank", func(variant) bool { return true }, func(c *Config) {
		c.Fault.FatalKill, c.Fault.FatalRank, c.Fault.FatalRound = true, c.Layout.Ranks(), 0
	}},
}

// The enumeration's input and worlds: a 2-node world of 4 ranks on either
// engine, so the exchange crosses the fabric and its leader-routed price has
// two leaders, and an odd world of 3 single-rank nodes, so the rank count is
// no power of two and every rank leads its node. A ragged world groups the
// same ranks into nodes one wider (3+1, or 2+1 in the odd world), so the
// traffic fold and the leader-routed price meet a short last node, and a
// restart that kills rank 1 leaves its survivors on one node. A streamed run always runs
// under streamBudget, several rounds over this input, so a resumed run has a
// checkpoint (every second round) behind its kill; multiRound tightens the
// budget, on any entry point, to rounds of 1 000 bases a rank.
const (
	streamBudget = 1_500 * 4 * streamBytesPerBase
	killRound    = 2
)

func variantLayout(gpu, odd, ragged bool) cluster.Layout {
	nodes, perNode := 2, 2
	if odd {
		nodes, perNode = 3, 1
	}
	l := cluster.SummitCPU(nodes)
	if gpu {
		l = cluster.SummitGPU(nodes)
	}
	l.RanksPerNode, l.Net.RanksPerNode = perNode, perNode
	if ragged {
		l.Net.RanksPerNode = perNode + 1
	}
	return l
}

func (v variant) String() string {
	var b strings.Builder
	for _, f := range []struct {
		on   bool
		name string
	}{
		{v.odd, "odd"}, {v.ragged, "ragged"}, {v.canonical, "canonical"}, {v.balanced, "balanced"},
		{v.multiRound, "rounds"}, {v.keep, "keep"}, {v.spill, "spill"},
		{v.ckpt, "ckpt"}, {v.faults, "faults"},
		{v.stray != "", v.stray},
	} {
		if f.on {
			b.WriteString(f.name + ",")
		}
	}
	return fmt.Sprintf("%s[%s]", [...]string{"run", "stream", "resume"}[v.entry], strings.TrimSuffix(b.String(), ","))
}

// config builds the variant's configuration; dir is where its spill bins
// and checkpoints go.
func (v variant) config(dir string) Config {
	cfg := Default(variantLayout(v.gpu, v.odd, v.ragged), v.mode)
	cfg.Canonical, cfg.BalancedPartition = v.canonical, v.balanced
	cfg.KeepTables = v.keep
	if v.entry != viaRun {
		cfg.MemBudgetBytes = streamBudget
	}
	if v.multiRound {
		cfg.MemBudgetBytes = roundBudget(cfg, 1_000)
	}
	if v.spill {
		cfg.Spill = SpillConfig{Dir: filepath.Join(dir, "spill"), Bins: 4}
	}
	if v.ckpt {
		cfg = ckptConfig(cfg, filepath.Join(dir, "ckpt"), 2, v.entry == viaResume)
	}
	if v.faults {
		cfg.Fault = fault.Config{Seed: 1, Drop: 0.05, Corrupt: 0.05}
	}
	for _, s := range strays {
		if s.name == v.stray {
			s.apply(&cfg)
		}
	}
	return cfg
}

// enter runs cfg through the variant's entry point. A resumed run first
// fails under a fatal kill at killRound with the restart off, then
// resumes from its checkpoint.
func (v variant) enter(cfg Config, reads []fastq.Record) (*Result, error) {
	switch v.entry {
	case viaStream:
		return RunStream(cfg, fastq.NewSliceSource(reads))
	case viaResume:
		if cfg.Validate() == nil {
			killed := cfg
			killed.Fault.FatalKill, killed.Fault.FatalRank, killed.Fault.FatalRound = true, 1, killRound
			if _, err := RunStream(killed, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
				return nil, fmt.Errorf("killed run: want fault.ErrKilled, got %v", err)
			}
		}
		return ResumeStream(cfg, fastq.NewSliceSource(reads))
	default:
		return Run(cfg, reads)
	}
}

// allVariants enumerates every combination of the settings and entry
// points, each stray only where it applies.
func allVariants(gpu bool, mode Mode) []variant {
	var out []variant
	for bits := 0; bits < 1<<9; bits++ {
		on := func(i int) bool { return bits>>i&1 == 1 }
		for _, entry := range []entry{viaRun, viaStream, viaResume} {
			v := variant{
				gpu: gpu, mode: mode, canonical: on(0), balanced: on(1),
				odd: on(2), multiRound: on(3), keep: on(4), spill: on(5),
				ckpt: on(6), faults: on(7), ragged: on(8), entry: entry,
			}
			if entry == viaResume && !v.ckpt {
				continue
			}
			for _, s := range strays {
				if s.applies(v) {
					v.stray = s.name
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// TestAllVariantsMatchOracle holds the combination table to its promise,
// over every combination of engine, world (4 ranks or an odd 3), node
// width (even, or ragged with a short last node), mode,
// canonical, balanced, multi-round, kept tables, spill,
// checkpoint, seeded drop and corrupt faults and entry point (Run,
// RunStream, and on a checkpointing variant ResumeStream after a fatal
// kill), plus one stray setting at a time:
//
//   - (a) every combination Validate accepts runs through its entry point
//     without error, complete, and bit-identical to kcount.SerialCount —
//     property (a) of DESIGN.md, on every variant at once — and a balanced
//     one that loses no rank counts on each rank what the balanced Run on
//     its world counts there;
//   - (b) every combination Validate refuses, its entry point refuses with
//     the same error before running anything;
//   - (c) every row of the table is the reason for at least one refusal.
func TestAllVariantsMatchOracle(t *testing.T) {
	reads := testReads(t, 6_000, 4)
	oracles := map[bool]*variantOracle{}
	for _, canonical := range []bool{false, true} {
		cfg := Default(variantLayout(false, false, false), KmerMode)
		cfg.Canonical = canonical
		oracles[canonical] = newVariantOracle(oracleFor(cfg, reads))
	}
	engines := map[bool]string{false: "cpu", true: "gpu"}
	type run struct {
		v   variant
		cfg Config
		dir string
	}
	runs := map[string][]run{}
	hits := make([]int, len(combinations))
	root := t.TempDir()
	for _, gpu := range []bool{false, true} {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			group := engines[gpu] + "/" + mode.String()
			for _, v := range allVariants(gpu, mode) {
				dir := filepath.Join(root, group, v.String())
				cfg := v.config(dir)
				err := cfg.Validate()
				if err == nil {
					runs[group] = append(runs[group], run{v, cfg, dir})
					continue
				}
				row := refusingRow(cfg)
				if row < 0 {
					t.Errorf("%s/%v: refused by a range check, not a combination row: %v", group, v, err)
					continue
				}
				if want := "pipeline: " + combinations[row].reason; err.Error() != want {
					t.Errorf("%s/%v: Validate says %q, its first refusing row %q", group, v, err, want)
				}
				hits[row]++
				if _, runErr := v.enter(cfg, reads); runErr == nil || runErr.Error() != err.Error() {
					t.Errorf("%s/%v: Validate refuses with %q, its entry point returned %v", group, v, err, runErr)
				}
			}
		}
	}
	for i, n := range hits {
		if n == 0 {
			t.Errorf("combination row %d (%q) refused no variant", i, combinations[i].reason)
		}
	}

	// What each rank of the balanced Run on each world counts: a balanced
	// variant routes by the map of the same profile, so while no rank dies
	// it must count the same on every rank, whatever its entry point.
	type world struct{ gpu, odd, ragged bool }
	balancedLoads := map[world][]uint64{}
	for w := range 8 {
		wd := world{w&1 == 1, w&2 == 2, w&4 == 4}
		cfg := Default(variantLayout(wd.gpu, wd.odd, wd.ragged), SupermerMode)
		cfg.BalancedPartition = true
		res, err := Run(cfg, reads)
		if err != nil {
			t.Fatal(err)
		}
		balancedLoads[wd] = res.PerRankKmers
	}

	// The default Run also runs on the paper-shaped worlds the
	// enumeration's small one stands in for — 12 GPU ranks, 8 CPU ranks —
	// over a larger input.
	defaultReads := testReads(t, 20_000, 8)
	cpu := cluster.SummitCPU(2)
	cpu.RanksPerNode, cpu.Net.RanksPerNode = 4, 4
	defaultLayouts := map[bool]cluster.Layout{false: cpu, true: smallGPULayout(2)}
	for _, gpu := range []bool{false, true} {
		t.Run(engines[gpu], func(t *testing.T) {
			for _, mode := range []Mode{KmerMode, SupermerMode} {
				t.Run(mode.String(), func(t *testing.T) {
					t.Run("default", func(t *testing.T) {
						t.Parallel()
						cfg := Default(defaultLayouts[gpu], mode)
						res, err := Run(cfg, defaultReads)
						if err != nil {
							t.Fatal(err)
						}
						newVariantOracle(oracleFor(cfg, defaultReads)).check(t, variant{}, res)
					})
					for _, r := range runs[engines[gpu]+"/"+mode.String()] {
						t.Run(r.v.String(), func(t *testing.T) {
							t.Parallel()
							if err := os.MkdirAll(r.dir, 0o755); err != nil {
								t.Fatal(err)
							}
							res, err := r.v.enter(r.cfg, reads)
							if err != nil {
								t.Fatal(err)
							}
							oracles[r.v.canonical].check(t, r.v, res)
							want := balancedLoads[world{r.v.gpu, r.v.odd, r.v.ragged}]
							if r.v.balanced && r.v.stray != "restart" && !slices.Equal(res.PerRankKmers, want) {
								t.Fatalf("balanced per-rank counts %v, the balanced Run's %v", res.PerRankKmers, want)
							}
						})
					}
				})
			}
		})
	}
}

// refusingRow returns the index of the first combination row that refuses
// cfg, or -1.
func refusingRow(cfg Config) int {
	for i, rule := range combinations {
		if rule.refused(&cfg) {
			return i
		}
	}
	return -1
}

// variantOracle is the serial spectrum a variant's result must reproduce.
type variantOracle struct {
	counts map[dna.Kmer]uint32
	hist   map[uint32]uint64
	total  uint64
	top    uint32
}

func newVariantOracle(counts map[dna.Kmer]uint32) *variantOracle {
	o := &variantOracle{counts: counts, hist: map[uint32]uint64{}}
	for _, c := range counts {
		o.hist[c]++
		o.total += uint64(c)
		o.top = max(o.top, c)
	}
	return o
}

// check asserts res is complete, restarted exactly when the variant kills a
// rank, and bit-identical to the oracle: totals, the whole histogram, every
// top k-mer's count, per-rank counts that add up to the total, every kept
// table entry, and a populated phase breakdown and exchange tally.
func (o *variantOracle) check(t *testing.T, v variant, res *Result) {
	t.Helper()
	if res.Incomplete {
		t.Fatal("run incomplete")
	}
	if restarted := v.stray == "restart"; res.Recovered != restarted || restarted && !slices.Equal(res.DeadRanks, []int{1}) {
		t.Fatalf("recovered %v with dead ranks %v, want a restart %v", res.Recovered, res.DeadRanks, restarted)
	}
	if res.TotalKmers != o.total || res.DistinctKmers != uint64(len(o.counts)) {
		t.Fatalf("counted %d/%d k-mers, oracle %d/%d", res.TotalKmers, res.DistinctKmers, o.total, len(o.counts))
	}
	if len(res.Histogram.Counts) != len(o.hist) {
		t.Fatalf("histogram has %d classes, oracle %d", len(res.Histogram.Counts), len(o.hist))
	}
	for f, n := range o.hist {
		if res.Histogram.Counts[f] != n {
			t.Fatalf("histogram class %d holds %d, oracle %d", f, res.Histogram.Counts[f], n)
		}
	}
	if len(res.TopKmers) == 0 || res.TopKmers[0].Count != o.top {
		t.Fatalf("top k-mers %v, oracle maximum %d", res.TopKmers, o.top)
	}
	for _, kv := range res.TopKmers {
		if o.counts[dna.Kmer(kv.Key)] != kv.Count {
			t.Fatalf("top k-mer %x counted %d, oracle %d", kv.Key, kv.Count, o.counts[dna.Kmer(kv.Key)])
		}
	}
	var perRank uint64
	for _, n := range res.PerRankKmers {
		perRank += n
	}
	if perRank != o.total {
		t.Fatalf("per-rank counts sum to %d, oracle %d", perRank, o.total)
	}
	if v.keep {
		if diff := res.MergedTable().EqualToOracle(o.counts); diff != "" {
			t.Fatalf("kept tables: %s", diff)
		}
	}
	// A positive exchange needs a world of several nodes, as every variant
	// starts on: only fabric bytes are priced, so a one-node CPU world's
	// exchange is 0 (TestOneNodeExchangeIsStaging). A ragged restart's
	// survivors share one node, after rounds that crossed the fabric.
	if res.Modeled.Parse <= 0 || res.Modeled.Exchange <= 0 || res.Modeled.Count <= 0 {
		t.Fatalf("phase breakdown not populated: %+v", res.Modeled)
	}
	// The leader-routed exchange prices the same staging and announcement,
	// and a fabric exchange of its own on these multi-node worlds.
	if res.HierExchange <= res.Staging {
		t.Fatalf("leader-routed exchange %v within the %v staging", res.HierExchange, res.Staging)
	}
	// The host staging the exchange includes: some on every GPU run, none
	// on the CPU.
	if res.Staging < 0 || res.Staging > res.Modeled.Exchange || (res.Staging > 0) != res.GPU {
		t.Fatalf("staging %v of a %v exchange (GPU %v)", res.Staging, res.Modeled.Exchange, res.GPU)
	}
	// The overlapped price hides at most the shorter of compute and
	// exchange, never a spilled run's pass 2, and nothing on one round.
	lo, hi := overlapBounds(res)
	if got := res.ModeledTotal(); got < lo || got > hi || res.Rounds == 1 && got != hi {
		t.Fatalf("overlapped total %v over %d rounds, want within [%v, %v]", got, res.Rounds, lo, hi)
	}
	if res.ItemsExchanged == 0 || res.PayloadBytes == 0 {
		t.Fatal("exchange accounting missing")
	}
	// Projected to its own input, a run prices as it ran, to the
	// nanosecond.
	if p := res.AtScale(float64(res.InputBases)); p.Modeled != res.Modeled || p.Staging != res.Staging ||
		p.AlltoallvTime != res.AlltoallvTime || p.HierExchange != res.HierExchange ||
		p.ModeledTotal() != res.ModeledTotal() || p.Rounds != res.Rounds || p.Scale != 1 {
		t.Fatalf("projected to its own %d bases, the run prices as %+v; it ran as %+v, staging %v, alltoallv %v, leader-routed %v, overlapped %v over %d rounds",
			res.InputBases, p, res.Modeled, res.Staging, res.AlltoallvTime, res.HierExchange, res.ModeledTotal(), res.Rounds)
	}
	// Faults strike frames on arrival, and only frames still awaited, so
	// each injected drop or corruption is exactly one bad frame.
	if tf := res.TotalFaults(); tf.Dropped+tf.Corrupted != tf.BadFrames {
		t.Fatalf("%d dropped + %d corrupted frames, but %d bad frames observed", tf.Dropped, tf.Corrupted, tf.BadFrames)
	}
}
