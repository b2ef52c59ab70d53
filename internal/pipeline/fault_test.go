package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/mpisim"
)

// faultEngines returns small per-engine layouts for the fault matrix.
func faultEngines() map[string]cluster.Layout {
	cpu := cluster.SummitCPU(1)
	cpu.RanksPerNode = 6
	cpu.Net.RanksPerNode = 6
	return map[string]cluster.Layout{
		"gpu": smallGPULayout(1),
		"cpu": cpu,
	}
}

// sameCounts asserts two results agree on everything the oracle checks.
func sameCounts(t *testing.T, want, got *Result) {
	t.Helper()
	if got.TotalKmers != want.TotalKmers || got.DistinctKmers != want.DistinctKmers {
		t.Fatalf("counts differ under faults: %d/%d vs clean %d/%d",
			got.TotalKmers, got.DistinctKmers, want.TotalKmers, want.DistinctKmers)
	}
	for f, c := range want.Histogram.Counts {
		if got.Histogram.Counts[f] != c {
			t.Fatalf("histogram class %d differs: %d vs %d", f, got.Histogram.Counts[f], c)
		}
	}
	if len(got.TopKmers) != len(want.TopKmers) {
		t.Fatalf("top-k length differs: %d vs %d", len(got.TopKmers), len(want.TopKmers))
	}
	for i := range want.TopKmers {
		if got.TopKmers[i] != want.TopKmers[i] {
			t.Fatalf("top-k entry %d differs: %+v vs %+v", i, got.TopKmers[i], want.TopKmers[i])
		}
	}
}

// TestFaultRecoveryViaRetry is the headline robustness property: with drop
// and corruption faults firing at seed-deterministic rates, the retry loop
// recovers a byte-identical result — Retries > 0 proves faults actually
// fired and were absorbed, Incomplete stays false.
func TestFaultRecoveryViaRetry(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	for engName, layout := range faultEngines() {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			t.Run(engName+"/"+mode.String(), func(t *testing.T) {
				base := Default(layout, mode)
				base.MemBudgetBytes = roundBudget(base, 4_000) // several rounds: more fault opportunities
				clean, err := Run(base, reads)
				if err != nil {
					t.Fatal(err)
				}
				cfg := base
				cfg.Fault = fault.Config{Seed: 1, Drop: 0.05, Corrupt: 0.05}
				res, err := Run(cfg, reads)
				if err != nil {
					t.Fatal(err)
				}
				if res.Incomplete {
					t.Fatal("run degraded despite ample retry budget")
				}
				tf := res.TotalFaults()
				if tf.Dropped+tf.Corrupted == 0 {
					t.Fatal("no faults fired; the test exercised nothing")
				}
				if tf.Retries == 0 {
					t.Fatal("faults fired but no retries recorded")
				}
				if tf.BadFrames == 0 {
					t.Fatal("faults fired but no bad frames observed")
				}
				sameCounts(t, clean, res)
				checkAgainstOracle(t, cfg, reads, res)
			})
		}
	}
}

// TestFaultExchangeLostFailsRun: a round whose exchange is still damaged
// after maxRetries retries fails the run — no partial spectrum, on every
// entry point, engine, mode and exchange strategy, with Overlap on and
// off, and on every rank. Every payload is dropped, so round 0 never verifies.
func TestFaultExchangeLostFailsRun(t *testing.T) {
	reads := testReads(t, 4_000, 3)
	entries := map[string]func(Config) (*Result, error){
		"run":    func(cfg Config) (*Result, error) { return Run(cfg, reads) },
		"stream": func(cfg Config) (*Result, error) { return RunStream(cfg, fastq.NewSliceSource(reads)) },
	}
	for engName, layout := range faultEngines() {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			t.Run(engName+"/"+mode.String(), func(t *testing.T) {
				for entry, run := range entries {
					for _, exch := range []Exchange{ExchangeFlat, ExchangeHier} {
						for _, overlap := range []bool{false, true} {
							t.Run(fmt.Sprintf("%s/%s/overlap=%v", entry, exch, overlap), func(t *testing.T) {
								cfg := Default(layout, mode)
								cfg.Exchange, cfg.Overlap = exch, overlap
								if exch == ExchangeHier {
									// 3 fabric nodes of 2 out of the 6 test ranks.
									cfg.Layout.Net.RanksPerNode = 2
								}
								cfg.Fault = fault.Config{Seed: 1, Drop: 1}
								res, err := run(cfg)
								if res != nil {
									t.Fatal("a run that lost an exchange returned a result")
								}
								if !errors.Is(err, ErrExchangeLost) {
									t.Fatalf("want ErrExchangeLost, got %v", err)
								}
								if errors.Is(err, mpisim.ErrPeerDead) {
									t.Fatalf("every rank should report the lost exchange, not a peer's death: %v", err)
								}
							})
						}
					}
				}
			})
		}
	}
}

// TestFaultKillReturnsStructuredError: a killed rank must surface as a
// structured error — the victim's fault.ErrKilled plus the peers'
// mpisim.ErrPeerDead — never a hang or panic.
func TestFaultKillReturnsStructuredError(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	for engName, layout := range faultEngines() {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			t.Run(engName+"/"+mode.String(), func(t *testing.T) {
				cfg := Default(layout, mode)
				cfg.MemBudgetBytes = roundBudget(cfg, 4_000)
				cfg.Fault = fault.Config{Seed: 3, Kill: 0.3}
				res, err := Run(cfg, reads)
				if err == nil {
					t.Fatalf("kill probability 0.3 over %d ranks fired nothing", layout.Ranks())
				}
				if res != nil {
					t.Fatal("failed run returned a result")
				}
				if !errors.Is(err, fault.ErrKilled) {
					t.Fatalf("error does not wrap fault.ErrKilled: %v", err)
				}
				if !errors.Is(err, mpisim.ErrPeerDead) {
					t.Fatalf("surviving peers did not report ErrPeerDead: %v", err)
				}
			})
		}
	}
}

// TestFaultStragglerCompletes: a straggler stall is a performance fault, not
// a correctness fault — without a deadline the peers wait it out and the
// result is identical.
func TestFaultStragglerCompletes(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	layout := smallGPULayout(1)
	for _, mode := range []Mode{KmerMode, SupermerMode} {
		t.Run(mode.String(), func(t *testing.T) {
			base := Default(layout, mode)
			base.MemBudgetBytes = roundBudget(base, 4_000)
			clean, err := Run(base, reads)
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Fault = fault.Config{Seed: 4, Delay: 0.4, DelayFor: time.Millisecond}
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			if res.Incomplete {
				t.Fatal("straggler stalls must not degrade the result")
			}
			if res.TotalFaults().Delayed == 0 {
				t.Fatal("no straggler stalls fired")
			}
			sameCounts(t, clean, res)
		})
	}
}

// TestFaultStragglerTripsDeadline: with an ExchangeDeadline shorter than the
// stall, the waiting peers abandon the collective with ErrDeadline instead
// of waiting forever.
func TestFaultStragglerTripsDeadline(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Fault = fault.Config{Seed: 4, Delay: 0.4, DelayFor: 300 * time.Millisecond}
	cfg.ExchangeDeadline = 25 * time.Millisecond
	_, err := Run(cfg, reads)
	if err == nil {
		t.Fatal("stall 12x the deadline did not trip it")
	}
	if !errors.Is(err, mpisim.ErrDeadline) {
		t.Fatalf("error does not wrap mpisim.ErrDeadline: %v", err)
	}
}

// TestFaultScheduleDeterministic: the same seed replays the same faults and
// the same recovery, down to the per-rank tallies.
func TestFaultScheduleDeterministic(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 4_000)
	cfg.Fault = fault.Config{Seed: 1, Drop: 0.05, Corrupt: 0.05}
	a, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, a, b)
	for r := range a.Faults {
		if a.Faults[r] != b.Faults[r] {
			t.Fatalf("rank %d fault tally differs across identical runs: %+v vs %+v",
				r, a.Faults[r], b.Faults[r])
		}
	}
}

// TestFaultRetriesDoNotCopyRounds is an allocation budget: a retry re-ships
// the round's sealed send rows as they lie, and a fault strikes a frame on
// arrival, copying only the one frame it corrupts. So a faulted multi-round
// run may allocate at most a tenth more than its fault-free twin. When
// every retry framed a private copy of every row it allocated 1.32 times
// as much.
func TestFaultRetriesDoNotCopyRounds(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	reads := testReads(t, 60_000, 8)
	base := Default(smallGPULayout(1), KmerMode)
	base.MemBudgetBytes = roundBudget(base, 20_000)
	allocated := func(cfg Config) (uint64, *Result) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg, reads)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, res
	}
	faulted := base
	faulted.Fault = fault.Config{Seed: 1, Drop: 0.05, Corrupt: 0.05}
	allocated(faulted) // warm the pools runs share
	clean, cres := allocated(base)
	got, res := allocated(faulted)
	if tf := res.TotalFaults(); tf.Retries == 0 || res.Rounds < 2 {
		t.Fatalf("%d rounds, %d retries: the budget measured no retried round", res.Rounds, tf.Retries)
	}
	sameCounts(t, cres, res)
	ratio := float64(got) / float64(clean)
	t.Logf("faulted run %d B (%d retries), fault-free twin %d B (%.2fx)", got, res.TotalFaults().Retries, clean, ratio)
	if ratio > 1.10 {
		t.Fatalf("faulted run allocated %.2fx its fault-free twin, budget 1.10x", ratio)
	}
}
