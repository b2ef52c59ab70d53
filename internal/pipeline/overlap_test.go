package pipeline

import (
	"reflect"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fault"
	"dedukt/internal/gpusim"
)

// TestOverlapMatchesSerial checks that Config.Overlap selects a model and
// nothing else: on multi-round runs, clean and with injected faults, for
// every engine, mode and exchange strategy, the Result with Overlap set
// differs from the one without only in Result.Overlap — and so in
// ModeledTotal — and both match the serial oracle.
func TestOverlapMatchesSerial(t *testing.T) {
	reads := testReads(t, 20_000, 8)
	layouts := map[string]cluster.Layout{
		"gpu": smallGPULayout(1),
		"cpu": func() cluster.Layout {
			l := cluster.SummitCPU(1)
			l.RanksPerNode = 6
			l.Net.RanksPerNode = 6
			return l
		}(),
	}
	faults := map[string]fault.Config{
		"clean": {},
		"faulted": {
			Seed: 11, Delay: 0.1, DelayFor: 200 * time.Microsecond,
			Drop: 0.04, Corrupt: 0.04,
		},
	}
	for engName, layout := range layouts {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			for fName, fc := range faults {
				for _, exch := range []Exchange{ExchangeFlat, ExchangeHier} {
					t.Run(engName+"/"+mode.String()+"/"+fName+"/"+exch.String(), func(t *testing.T) {
						cfg := Default(layout, mode)
						cfg.MemBudgetBytes = roundBudget(cfg, 6000) // force a multi-round run
						cfg.Fault = fc
						cfg.Exchange = exch
						if exch == ExchangeHier {
							// 3 fabric nodes of 2 out of the 6 test ranks.
							cfg.Layout.Net.RanksPerNode = 2
						}
						serial, err := Run(cfg, reads)
						if err != nil {
							t.Fatalf("serial run: %v", err)
						}
						cfg.Overlap = true
						overlapped, err := Run(cfg, reads)
						if err != nil {
							t.Fatalf("overlapped run: %v", err)
						}
						if serial.Rounds < 2 {
							t.Fatalf("want a multi-round run, got %d rounds", serial.Rounds)
						}
						if fc.Seed != 0 && serial.TotalFaults().Retries == 0 {
							t.Fatal("no round retried; pick a seed that faults")
						}
						if !overlapped.Overlap || serial.Overlap {
							t.Fatal("Result.Overlap does not echo Config.Overlap")
						}
						checkAgainstOracle(t, cfg, reads, overlapped)

						// Wall time is the host's, and the GPU count's modeled
						// cost depends on the order its warps' atomics land in,
						// which goroutine scheduling sets.
						got, want := *overlapped, *serial
						for _, r := range []*Result{&got, &want} {
							r.Overlap, r.Wall = false, 0
							if r.GPU {
								r.Modeled.Count, r.CountCompute, r.GPUCount = 0, 0, gpusim.KernelStats{}
							}
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("Overlap changed more than the modeled total:\n serial %+v\nOverlap %+v", want, got)
						}
					})
				}
			}
		}
	}
}

// TestModeledTotalOverlapRule pins the steady-state accounting: an
// overlapped multi-round run is bounded by max(compute, exchange) plus one
// round of pipeline fill, while serial runs add the phases.
func TestModeledTotalOverlapRule(t *testing.T) {
	res := &Result{Rounds: 4}
	res.Modeled.Parse = 30 * time.Millisecond
	res.Modeled.Count = 10 * time.Millisecond
	res.Modeled.Exchange = 100 * time.Millisecond

	if got, want := res.ModeledTotal(), 140*time.Millisecond; got != want {
		t.Fatalf("serial ModeledTotal = %v, want %v", got, want)
	}
	res.Overlap = true
	// Exchange-bound: exchange dominates, one round of compute fills the pipe.
	if got, want := res.ModeledTotal(), 110*time.Millisecond; got != want {
		t.Fatalf("overlapped exchange-bound ModeledTotal = %v, want %v", got, want)
	}
	// Compute-bound: exchange fully hidden.
	res.Modeled.Exchange = 20 * time.Millisecond
	if got, want := res.ModeledTotal(), 50*time.Millisecond; got != want {
		t.Fatalf("overlapped compute-bound ModeledTotal = %v, want %v", got, want)
	}
	// Single round: nothing to overlap with.
	res.Rounds = 1
	if got, want := res.ModeledTotal(), 60*time.Millisecond; got != want {
		t.Fatalf("single-round ModeledTotal = %v, want %v", got, want)
	}
}

// TestRoundLoopAllocs pins the hot round loop's marginal allocation cost:
// doubling the round count over the same input may only add a small
// per-round overhead (pooled scratch, parity buffers), not per-item
// allocations. Regressions that reintroduce per-round flattening or
// per-part framing garbage trip this.
func TestRoundLoopAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	reads := testReads(t, 20_000, 8)
	run := func(roundBases int) (rounds int) {
		cfg := Default(smallGPULayout(1), SupermerMode)
		cfg.MemBudgetBytes = roundBudget(cfg, roundBases)
		res, err := Run(cfg, reads)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	measure := func(roundBases int) (float64, int) {
		var rounds int
		allocs := testing.AllocsPerRun(3, func() {
			rounds = run(roundBases)
		})
		return allocs, rounds
	}
	aFew, rFew := measure(12_000)
	aMany, rMany := measure(3_000)
	if rMany <= rFew || rFew < 2 {
		t.Fatalf("want rMany > rFew >= 2, got %d and %d rounds", rMany, rFew)
	}
	perRound := (aMany - aFew) / float64(rMany-rFew)
	t.Logf("rounds %d -> %d, allocs %.0f -> %.0f, marginal %.1f allocs/round", rFew, rMany, aFew, aMany, perRound)
	// Measured ~360 allocs/round across the 6-rank world now that the
	// device pools per-worker launch scratch (lane access logs, fold
	// buffers) across a rank's kernel launches; what remains is per-launch
	// goroutine spawn and per-collective bookkeeping. Before pooling, every
	// launch re-grew each lane's access log — ~3600 allocs/round, and worse
	// still when framing allocated per part.
	const budget = 1200
	if perRound > budget {
		t.Fatalf("marginal cost %.1f allocs/round exceeds budget %d", perRound, budget)
	}
}
