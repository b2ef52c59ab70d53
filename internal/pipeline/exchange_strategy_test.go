package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/kernels"
	"dedukt/internal/obs"
)

// exchangeMessages reads back the run's fabric-message counter for one
// strategy label (get-or-create returns the same series the pipeline wrote).
func exchangeMessages(rec *obs.Recorder, strategy string) uint64 {
	return rec.Registry().Counter("pipeline_exchange_messages_total", "",
		obs.L("strategy", strategy)).Value()
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

// TestHierMatchesFlatExactly is the strategy-equivalence core of the
// hierarchical exchange: on a genuine multi-node world, flat and hier runs
// must agree bit-for-bit — totals, per-rank loads, histogram, top-k — while
// the message metric records the P² → (P/RanksPerNode)² collapse and the
// hier run emits its gather/leader_alltoall/scatter span triple.
func TestHierMatchesFlatExactly(t *testing.T) {
	reads := testReads(t, 12_000, 5)
	layout := smallGPULayout(2) // 12 ranks, 2 fabric nodes of 6
	p := layout.Ranks()
	rpn := layout.Net.RanksPerNode
	for _, mode := range []Mode{KmerMode, SupermerMode} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(exch Exchange) (*Result, *obs.Recorder) {
				cfg := Default(layout, mode)
				cfg.Exchange = exch
				cfg.MemBudgetBytes = roundBudget(cfg, 3000) // multi-round: the metric must scale with rounds
				cfg.Obs = obs.NewRecorder(p)
				res, err := Run(cfg, reads)
				if err != nil {
					t.Fatalf("%v run: %v", exch, err)
				}
				return res, cfg.Obs
			}
			flat, flatRec := run(ExchangeFlat)
			hier, hierRec := run(ExchangeHier)

			if flat.Rounds < 2 || hier.Rounds != flat.Rounds {
				t.Fatalf("rounds: flat %d, hier %d (want equal, multi-round)", flat.Rounds, hier.Rounds)
			}
			if hier.TotalKmers != flat.TotalKmers || hier.DistinctKmers != flat.DistinctKmers {
				t.Fatalf("totals differ: flat %d/%d, hier %d/%d",
					flat.TotalKmers, flat.DistinctKmers, hier.TotalKmers, hier.DistinctKmers)
			}
			if !reflect.DeepEqual(hier.PerRankKmers, flat.PerRankKmers) {
				t.Fatalf("per-rank loads differ:\n flat %v\n hier %v", flat.PerRankKmers, hier.PerRankKmers)
			}
			if !reflect.DeepEqual(hier.Histogram.Counts, flat.Histogram.Counts) {
				t.Fatal("histograms differ between strategies")
			}
			if !reflect.DeepEqual(hier.TopKmers, flat.TopKmers) {
				t.Fatal("top-k differs between strategies")
			}
			cfg := Default(layout, mode)
			checkAgainstOracle(t, cfg, reads, hier)

			// The message metric: P² per flat round collapses to L² per hier
			// round, L = P/RanksPerNode.
			wantFlat := uint64(flat.Rounds * kernels.FlatExchangeMessages(p))
			if got := exchangeMessages(flatRec, "flat"); got != wantFlat {
				t.Fatalf("flat messages = %d, want %d (%d rounds × %d²)", got, wantFlat, flat.Rounds, p)
			}
			wantHier := uint64(hier.Rounds * kernels.HierExchangeMessages(p, rpn))
			if got := exchangeMessages(hierRec, "hier"); got != wantHier {
				t.Fatalf("hier messages = %d, want %d (%d rounds × %d²)",
					got, wantHier, hier.Rounds, p/rpn)
			}
			if wantHier*uint64(rpn*rpn) != wantFlat {
				t.Fatalf("metric ratio %d/%d is not RanksPerNode²", wantFlat, wantHier)
			}

			// The hier run must stage through the gather → leader → scatter
			// spans; the flat run must not know those phases exist.
			for _, phase := range []string{obs.PhaseGather, obs.PhaseLeader, obs.PhaseScatter} {
				if n := phaseSpans(hierRec, phase); n != p*hier.Rounds {
					t.Fatalf("hier %s spans = %d, want %d (ranks × rounds)", phase, n, p*hier.Rounds)
				}
				if n := phaseSpans(flatRec, phase); n != 0 {
					t.Fatalf("flat run recorded %d %s spans", n, phase)
				}
			}
		})
	}
}

// TestHierRaggedWorld pins satellite semantics: a world whose size is not a
// multiple of RanksPerNode groups into a ragged last node (ceil division)
// and still counts exactly — Validate accepts the configuration rather than
// rejecting it. 7 ranks at 3 per node = nodes of 3, 3 and 1.
func TestHierRaggedWorld(t *testing.T) {
	reads := testReads(t, 8_000, 4)
	layout := cluster.SummitGPU(7)
	layout.RanksPerNode = 1 // 7 single-rank nodes for the layout math
	layout.Net.RanksPerNode = 3

	cfg := Default(layout, SupermerMode)
	cfg.Exchange = ExchangeHier
	if err := cfg.Validate(InMemory); err != nil {
		t.Fatalf("Validate rejected a ragged hier world: %v", err)
	}
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, cfg, reads, res)

	flat := cfg
	flat.Exchange = ExchangeFlat
	want, err := Run(flat, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalKmers != want.TotalKmers || res.DistinctKmers != want.DistinctKmers ||
		!reflect.DeepEqual(res.PerRankKmers, want.PerRankKmers) {
		t.Fatalf("ragged hier diverges from flat: %d/%d vs %d/%d",
			res.TotalKmers, res.DistinctKmers, want.TotalKmers, want.DistinctKmers)
	}
}

// TestStagingIsGPUDirectProjection pins Result.Staging, the host staging
// term the modeled exchange includes, so that Modeled.Exchange−Staging is
// the GPUDirect exchange: on multi-round GPU runs in either mode over
// either strategy it is the heaviest rank's stage_h2d plus exchange span
// time (the input leg and both exchange legs, recorded every round), short
// of the whole exchange by the fabric time; the CPU engine stages nothing.
func TestStagingIsGPUDirectProjection(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	cpu := smallCPULayout()
	cpu.Nodes = 2 // the fabric is priced between nodes only
	for _, layout := range []cluster.Layout{smallGPULayout(2), cpu} {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			for _, exch := range []Exchange{ExchangeFlat, ExchangeHier} {
				t.Run(fmt.Sprintf("gpu=%v/%v/%v", layout.GPU != nil, mode, exch), func(t *testing.T) {
					cfg := Default(layout, mode)
					cfg.Exchange = exch
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

// TestModeExchangeText pins the -mode and -exchange flag surface — each
// name parses back to its value, unknown names are refused — and
// Validate's strategy check.
func TestModeExchangeText(t *testing.T) {
	for _, want := range []Exchange{ExchangeFlat, ExchangeHier} {
		b, _ := want.MarshalText()
		var got Exchange
		if err := got.UnmarshalText(b); err != nil || got != want {
			t.Fatalf("Exchange.UnmarshalText(%q) = %v, %v", b, got, err)
		}
	}
	for _, want := range []Mode{KmerMode, SupermerMode} {
		b, _ := want.MarshalText()
		var got Mode
		if err := got.UnmarshalText(b); err != nil || got != want {
			t.Fatalf("Mode.UnmarshalText(%q) = %v, %v", b, got, err)
		}
	}
	var e Exchange
	if err := e.UnmarshalText([]byte("ring")); err == nil {
		t.Fatal("Exchange.UnmarshalText accepted an unknown strategy")
	}
	var m Mode
	if err := m.UnmarshalText([]byte("read")); err == nil {
		t.Fatal("Mode.UnmarshalText accepted an unknown mode")
	}
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.Exchange = Exchange(99)
	if err := cfg.Validate(InMemory); err == nil {
		t.Fatal("Validate accepted an unknown exchange strategy")
	}
}
