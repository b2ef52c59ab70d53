package pipeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/fault"
	"dedukt/internal/obs"
)

// TestTracedRunSpanInvariants drives a multi-round run with injected
// stragglers and drops and checks the recorded timeline: exactly one span
// per rank × round × phase, non-negative monotonic timing, retry spans
// nested inside their round's exchange span, and fault/retry instants
// present. Run under -race this also exercises the recorder's concurrency
// (every rank goroutine records into it simultaneously).
func TestTracedRunSpanInvariants(t *testing.T) {
	reads := testReads(t, 12_000, 6)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 4_000) // force several rounds
	cfg.Fault = fault.Config{Seed: 3, Delay: 0.15, DelayFor: 200 * time.Microsecond, Drop: 0.08}
	rec := obs.NewRecorder(cfg.Layout.Ranks())
	cfg.Obs = rec

	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, cfg, reads, res)
	if res.Rounds < 2 {
		t.Fatalf("rounds = %d, want ≥ 2 (shrink the budget)", res.Rounds)
	}

	phases := []string{obs.PhaseParse, obs.PhaseStageH2D, obs.PhaseExchange, obs.PhaseCount}
	type key struct {
		rank, round int
		phase       string
	}
	count := map[key]int{}
	exchange := map[[2]int]obs.Span{}
	for _, s := range rec.Spans() {
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("span %+v has negative timing", s)
		}
		if s.Phase == obs.PhaseRetry {
			continue // checked against their exchange spans below
		}
		count[key{s.Rank, s.Round, s.Phase}]++
		if s.Phase == obs.PhaseExchange {
			exchange[[2]int{s.Rank, s.Round}] = s
		}
	}
	for rank := 0; rank < res.Ranks; rank++ {
		for round := 0; round < res.Rounds; round++ {
			for _, ph := range phases {
				if got := count[key{rank, round, ph}]; got != 1 {
					t.Fatalf("rank %d round %d phase %s: %d spans, want 1", rank, round, ph, got)
				}
			}
		}
	}

	var retrySpans int
	for _, s := range rec.Spans() {
		if s.Phase != obs.PhaseRetry {
			continue
		}
		retrySpans++
		enc, ok := exchange[[2]int{s.Rank, s.Round}]
		if !ok {
			t.Fatalf("retry span %+v has no enclosing exchange span", s)
		}
		if s.Start < enc.Start || s.Start+s.Dur > enc.Start+enc.Dur {
			t.Fatalf("retry span [%v,%v) escapes exchange span [%v,%v) (rank %d round %d)",
				s.Start, s.Start+s.Dur, enc.Start, enc.Start+enc.Dur, s.Rank, s.Round)
		}
	}

	events := map[string]int{}
	for _, i := range rec.Instants() {
		events[i.Name]++
	}
	tf := res.TotalFaults()
	if got := events[obs.EvDrop]; uint64(got) != tf.Dropped {
		t.Fatalf("drop instants = %d, injector dropped %d", got, tf.Dropped)
	}
	if got := events[obs.EvDelay]; uint64(got) != tf.Delayed {
		t.Fatalf("delay instants = %d, injector delayed %d", got, tf.Delayed)
	}
	if got := events[obs.EvRetry]; uint64(got) != tf.Retries {
		t.Fatalf("retry instants = %d, injector retries %d", got, tf.Retries)
	}
	if tf.Retries > 0 && retrySpans == 0 {
		t.Fatal("rounds retried but no retry spans recorded")
	}

	// The exported trace must be loadable JSON with one thread per rank.
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf2 struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf2); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	threads := map[int]bool{}
	for _, ev := range tf2.TraceEvents {
		if ev.Ph == "X" {
			threads[ev.Tid] = true
		}
	}
	if len(threads) != res.Ranks {
		t.Fatalf("trace threads = %d, want %d", len(threads), res.Ranks)
	}
}

// TestTracedRunMetrics checks the run-level metric export: the registry
// carries the pipeline, gpusim and fault families after a traced run.
func TestTracedRunMetrics(t *testing.T) {
	reads := testReads(t, 8_000, 4)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Fault = fault.Config{Seed: 1, Drop: 0.05}
	rec := obs.NewRecorder(cfg.Layout.Ranks())
	cfg.Obs = rec

	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pipeline_items_exchanged_total counter",
		"# TYPE pipeline_load_imbalance gauge",
		"# TYPE mpisim_collectives_total counter",
		`mpisim_collective_bytes_total{op="alltoallv"}`,
		`gpusim_kernel_launches_total{kernel=`,
		`fault_injected_total{kind="drop"}`,
		`pipeline_phase_seconds{phase="exchange"}`,
	} {
		if !bytes.Contains(sb.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	_ = res
}

// TestReportImbalanceIsTableIII: count spans carry the k-mers a rank
// inserted, not the units it received, so on a one-round supermer run the
// report's round is the whole spectrum and its imbalance is the run's load
// imbalance — the paper's Table III metric — on either engine.
func TestReportImbalanceIsTableIII(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	for name, layout := range map[string]cluster.Layout{"cpu": smallCPULayout(), "gpu": smallGPULayout(1)} {
		t.Run(name, func(t *testing.T) {
			cfg := Default(layout, SupermerMode)
			rec := obs.NewRecorder(cfg.Layout.Ranks())
			cfg.Obs = rec
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			rep := rec.BuildReport()
			if res.Rounds != 1 || len(rep.Rounds) != 1 {
				t.Fatalf("%d rounds run, %d reported, want one", res.Rounds, len(rep.Rounds))
			}
			if r0 := rep.Rounds[0]; r0.Items != res.TotalKmers || r0.Imbalance != res.LoadImbalance() {
				t.Fatalf("report round: %d k-mers, imbalance %v; run: %d k-mers, load imbalance %v",
					r0.Items, r0.Imbalance, res.TotalKmers, res.LoadImbalance())
			}
		})
	}
}

// TestSpillReportRounds: a spill run counts after its rounds (pass 2 records
// round -1), so the report's rounds read its spill spans instead: every
// round of a two-round GPU spill run has items and an imbalance, the rounds
// add up to the exchanged supermers, and the column says what it counts.
func TestSpillReportRounds(t *testing.T) {
	reads := testReads(t, 20_000, 4)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Spill.Dir = t.TempDir()
	cfg.MemBudgetBytes = roundBudget(cfg, 8_000)
	rec := obs.NewRecorder(cfg.Layout.Ranks())
	cfg.Obs = rec
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.BuildReport()
	if res.Rounds != 2 || len(rep.Rounds) != 2 || !rep.Spilled {
		t.Fatalf("%d rounds run, %d reported (spilled %v), want two spilled", res.Rounds, len(rep.Rounds), rep.Spilled)
	}
	var items uint64
	for _, rr := range rep.Rounds {
		if rr.Items == 0 || rr.Imbalance == 0 {
			t.Fatalf("round %d: %d items, imbalance %v", rr.Round, rr.Items, rr.Imbalance)
		}
		items += rr.Items
	}
	if items != res.ItemsExchanged {
		t.Fatalf("rounds spilled %d items, the run exchanged %d", items, res.ItemsExchanged)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "spilled items") {
		t.Fatalf("report does not label its items as spilled:\n%s", sb.String())
	}
}
