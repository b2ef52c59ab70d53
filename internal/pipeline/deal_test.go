package pipeline

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/obs"
)

// parseRecord is what a run's parse and exchange accounting came to: each
// rank's modeled parse time and sent items, round by round, from its parse
// spans, and the run-wide figures built from them. The count phase is left
// out: the GPU engine's count statistics depend on the order warps reach
// the table.
type parseRecord struct {
	perRank map[[2]int][2]uint64 // (rank, round) → (modeled parse ns, items sent)
	ops     uint64
	parse   int64
	rounds  int
	items   uint64
	payload uint64
	// exchange and hier are Modeled.Exchange and HierExchange: priced
	// from bytes alone, so they follow the deal too.
	exchange, hier int64
}

func recordParse(res *Result, rec *obs.Recorder) parseRecord {
	pr := parseRecord{
		perRank: map[[2]int][2]uint64{}, ops: res.ParseCompute, parse: int64(res.Modeled.Parse),
		rounds: res.Rounds, items: res.ItemsExchanged, payload: res.PayloadBytes,
		exchange: int64(res.Modeled.Exchange), hier: int64(res.HierExchange),
	}
	for _, sp := range rec.Spans() {
		if sp.Phase == obs.PhaseParse {
			k := [2]int{sp.Rank, sp.Round}
			pr.perRank[k] = [2]uint64{pr.perRank[k][0] + uint64(sp.Modeled), pr.perRank[k][1] + sp.Items}
		}
	}
	return pr
}

// TestDealIsDeterministic pins that which rank parses what is a function of
// the input alone: Run and RunStream, in supermer and k-mer mode, on 3
// nodes of 2 and on a ragged 4+2, and a
// checkpointing supermer run killed at round 3 whose survivors restart
// from the checkpoint, each run five times at each of GOMAXPROCS 1, 2 and
// 4, parse the same bases on the same rank in the same round every time —
// the same per-rank, per-round modeled parse and items, ParseCompute,
// Modeled.Parse, Rounds, ItemsExchanged and PayloadBytes, and the same
// exchange price, as run and leader-routed.
func TestDealIsDeterministic(t *testing.T) {
	reads := testReads(t, 6_000, 4)
	type variant struct {
		name string
		cfg  Config
		run  func(Config) (*Result, error)
	}
	runIn := func(cfg Config) (*Result, error) { return Run(cfg, reads) }
	runStream := func(cfg Config) (*Result, error) { return RunStream(cfg, fastq.NewSliceSource(reads)) }
	var variants []variant
	for _, mode := range []Mode{SupermerMode, KmerMode} {
		for _, width := range []int{2, 4} {
			cfg := Default(smallGPULayout(1), mode)
			cfg.MemBudgetBytes = roundBudget(cfg, 700)
			cfg.Layout.Net.RanksPerNode = width
			name := fmt.Sprintf("%s/width=%d", mode, width)
			variants = append(variants, variant{"run/" + name, cfg, runIn}, variant{"stream/" + name, cfg, runStream})
		}
	}
	killed := Default(smallGPULayout(1), SupermerMode)
	killed.MemBudgetBytes = roundBudget(killed, 700)
	killed.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 3}
	variants = append(variants, variant{"stream/killed", killed, runStream})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	root := t.TempDir()
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var first parseRecord
			for i, procs := range []int{1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4, 1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				cfg := v.cfg
				cfg.Obs = obs.NewRecorder(cfg.Layout.Ranks())
				if cfg.Fault.FatalKill {
					cfg = ckptConfig(cfg, filepath.Join(root, fmt.Sprint(i)), 2, false)
				}
				res, err := v.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Fault.FatalKill && !res.Recovered {
					t.Fatal("the killed run did not restart")
				}
				got := recordParse(res, cfg.Obs)
				if i == 0 {
					if first = got; first.rounds < 3 {
						t.Fatalf("%d rounds, want a multi-round run", first.rounds)
					}
					continue
				}
				if !reflect.DeepEqual(got, first) {
					t.Fatalf("run %d at GOMAXPROCS %d: %+v, first run: %+v", i, procs, got, first)
				}
			}
		})
	}
}

// TestNoTrailingRound pins the round count of a stream whose last round
// holds two or more chunks: exactly ⌈chunks/P⌉ rounds, every one of them
// staging bases on some rank — no empty round after the input ends.
func TestNoTrailingRound(t *testing.T) {
	reads := testReads(t, 9_000, 4)
	for _, roundBases := range []int{700, 1_000, 4_000} {
		t.Run(fmt.Sprint(roundBases), func(t *testing.T) {
			cfg := Default(smallGPULayout(1), KmerMode)
			cfg.MemBudgetBytes = roundBudget(cfg, roundBases)
			rec := obs.NewRecorder(cfg.Layout.Ranks())
			cfg.Obs = rec
			res, err := RunStream(cfg, fastq.NewSliceSource(reads))
			if err != nil {
				t.Fatal(err)
			}
			// A staged chunk is a stage_h2d span carrying its bases.
			chunks, last := 0, map[int]int{}
			for _, sp := range rec.Spans() {
				if sp.Phase == obs.PhaseStageH2D && sp.Items > 0 {
					chunks++
					last[sp.Round]++
				}
			}
			p := cfg.Layout.Ranks()
			if want := (chunks + p - 1) / p; res.Rounds != want {
				t.Fatalf("%d chunks on %d ranks ran %d rounds, want %d", chunks, p, res.Rounds, want)
			}
			if n := last[res.Rounds-1]; n < 2 {
				t.Fatalf("the last round holds %d chunks; the case needs two or more", n)
			}
			checkAgainstOracle(t, cfg, reads, res)
		})
	}
}
