package pipeline

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/kernels"
	"dedukt/internal/obs"
)

// exchangeMessages reads back the run's fabric-message counter for one
// route label (get-or-create returns the same series the pipeline wrote).
func exchangeMessages(rec *obs.Recorder, route string) uint64 {
	return rec.Registry().Counter("pipeline_exchange_messages_total", "",
		obs.L("route", route)).Value()
}

// phaseSpans counts the recorded spans with the given phase name.
func phaseSpans(rec *obs.Recorder, phase string) int {
	n := 0
	for _, sp := range rec.Spans() {
		if sp.Phase == phase {
			n++
		}
	}
	return n
}

// projectionCase is one run whose leader-routed price is pinned.
type projectionCase struct {
	name string
	cfg  Config
	// hier and flat are the run's HierExchange and Modeled.Exchange: the
	// modeled exchanges the same run printed when it could still be routed
	// through node leaders, and when it ran flat.
	hier, flat time.Duration
}

// projectionCases are the pinned runs over reads: a clean run on 2 nodes
// of 6 GPU ranks, a faulted multi-round one, a world restarted ragged on
// the survivors of a rank death (4 ranks on 2 nodes shrink to 3: nodes of
// 2 and 1), and the odd world of 3 single-rank nodes.
func projectionCases(reads []fastq.Record, dir string) []projectionCase {
	clean := Default(smallGPULayout(2), SupermerMode)
	faulted := Default(smallGPULayout(2), KmerMode)
	faulted.MemBudgetBytes = roundBudget(faulted, 3000)
	faulted.Fault = fault.Config{Seed: 3, Drop: 0.05, Corrupt: 0.02}
	restarted := Default(variantLayout(false, false, false), KmerMode)
	restarted.MemBudgetBytes = roundBudget(restarted, 1_000)
	restarted = ckptConfig(restarted, dir, 2, false)
	restarted.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: killRound}
	odd := Default(variantLayout(true, true, false), SupermerMode)
	odd.MemBudgetBytes = roundBudget(odd, 1_000)
	return []projectionCase{
		{"clean-2x6", clean, 78_821, 98_508},
		{"faulted-rounds", faulted, 538_129, 577_503},
		{"restarted-ragged", restarted, 179_743, 211_465},
		{"odd-3x1", odd, 600_354, 600_092},
	}
}

// TestHierExchangeProjection pins Result.HierExchange to the nanosecond on
// runs that cover the projection's terms — headers on every off-node pair,
// ⌈P/w⌉ leaders, retries priced flat, a world regrouped ragged after a
// restart, single-rank nodes — and holds each to the serial oracle. The
// pinned values are what the leader-routed exchange printed for the same
// runs when it still ran; its fabric message count, L² a round against P²,
// stays observable as pipeline_exchange_messages_total.
func TestHierExchangeProjection(t *testing.T) {
	reads := testReads(t, 8_000, 5)
	for _, tc := range projectionCases(reads, t.TempDir()) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Obs = obs.NewRecorder(cfg.Layout.Ranks())
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, cfg, reads, res)
			if res.HierExchange != tc.hier || res.Modeled.Exchange != tc.flat {
				t.Fatalf("exchange %d ns, leader-routed %d ns; pinned %d and %d",
					res.Modeled.Exchange, res.HierExchange, tc.flat, tc.hier)
			}
			if cfg.Fault.Seed != 0 && res.TotalFaults().Retries == 0 {
				t.Fatal("the faulted run retried no round")
			}
			if restarted := cfg.Fault.FatalKill; res.Recovered != restarted {
				t.Fatalf("recovered %v, want %v", res.Recovered, restarted)
			}
			if res.Recovered {
				return // the world's size, so its message tally, changed
			}
			p, rpn := cfg.Layout.Ranks(), cfg.Layout.Net.RanksPerNode
			for route, per := range map[string]int{"flat": p * p, "leader": kernels.HierExchangeMessages(p, rpn)} {
				if got, want := exchangeMessages(cfg.Obs, route), uint64(res.Rounds*per); got != want {
					t.Fatalf("%s messages %d, want %d (%d rounds × %d)", route, got, want, res.Rounds, per)
				}
			}
		})
	}
}

// TestOneNodeExchangeIsStaging pins the one-node price: the model charges
// fabric bytes only, so a world on one node exchanges for free — its
// modeled exchange is its host staging alone (none on the CPU engine), and
// with one leader its leader-routed exchange is the same. faultEngines'
// layouts are 6 ranks on one node.
func TestOneNodeExchangeIsStaging(t *testing.T) {
	reads := testReads(t, 8_000, 5)
	for name, layout := range faultEngines() {
		t.Run(name, func(t *testing.T) {
			cfg := Default(layout, KmerMode)
			cfg.MemBudgetBytes = roundBudget(cfg, 3000)
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			if res.Modeled.Exchange != res.Staging || res.HierExchange != res.Modeled.Exchange {
				t.Fatalf("exchange %v, staging %v, leader-routed %v: want all equal on one node",
					res.Modeled.Exchange, res.Staging, res.HierExchange)
			}
			if res.Volume.FabricBytes != 0 || res.Volume.TotalBytes == 0 {
				t.Fatalf("volume %+v: want payload and no fabric bytes", res.Volume)
			}
		})
	}
}

// TestStagingIsGPUDirectProjection pins Result.Staging, the host staging
// term the modeled exchange includes, so that Modeled.Exchange−Staging is
// the GPUDirect exchange: on multi-round GPU runs in either mode, on 2
// nodes of 6 or a ragged 5+5+2, it is the
// heaviest rank's stage_h2d plus exchange span
// time (the input leg and both exchange legs, recorded every round), short
// of the whole exchange by the fabric time; the CPU engine stages nothing.
func TestStagingIsGPUDirectProjection(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	cpu := smallCPULayout()
	cpu.Nodes = 2 // the fabric is priced between nodes only
	for _, layout := range []cluster.Layout{smallGPULayout(2), cpu} {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			for _, width := range []int{6, 5} {
				t.Run(fmt.Sprintf("gpu=%v/%v/width=%d", layout.GPU != nil, mode, width), func(t *testing.T) {
					cfg := Default(layout, mode)
					cfg.Layout.Net.RanksPerNode = width
					cfg.MemBudgetBytes = roundBudget(cfg, 3000)
					cfg.Obs = obs.NewRecorder(layout.Ranks())
					res, err := Run(cfg, reads)
					if err != nil {
						t.Fatal(err)
					}
					if res.Rounds < 2 {
						t.Fatalf("%d rounds, want several", res.Rounds)
					}
					staged := make([]time.Duration, layout.Ranks())
					for _, sp := range cfg.Obs.Spans() {
						if sp.Phase == obs.PhaseStageH2D || sp.Phase == obs.PhaseExchange {
							staged[sp.Rank] += sp.Modeled
						}
					}
					if want := slices.Max(staged); res.Staging != want {
						t.Fatalf("Staging %v, heaviest rank's staging spans %v", res.Staging, want)
					}
					if res.Staging >= res.Modeled.Exchange {
						t.Fatalf("Staging %v leaves no fabric time in the %v exchange", res.Staging, res.Modeled.Exchange)
					}
					spans, want := phaseSpans(cfg.Obs, obs.PhaseStageH2D), 0
					if res.GPU {
						want = layout.Ranks() * res.Rounds
					}
					if spans != want || (res.Staging > 0) != res.GPU {
						t.Fatalf("%d stage_h2d spans (want %d), Staging %v on GPU=%v", spans, want, res.Staging, res.GPU)
					}
				})
			}
		}
	}
}
