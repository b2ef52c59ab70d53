package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
)

func mkReads(lens ...int) []fastq.Record {
	var out []fastq.Record
	for _, l := range lens {
		out = append(out, fastq.Record{Seq: make([]byte, l)})
	}
	return out
}

// splitSource is a chunkSource that deals every seat its own reads, in
// chunks of at most maxBases (at least one read): the per-rank input split
// the shared producer never makes.
type splitSource struct {
	parts    [][]fastq.Record
	maxBases int
	next     []int // each seat's next read
}

func newSplitSource(maxBases int, parts ...[]fastq.Record) *splitSource {
	return &splitSource{parts: parts, maxBases: maxBases, next: make([]int, len(parts))}
}

func (s *splitSource) deal(slot, _ int) ([]byte, bool, error) {
	part, i := s.parts[slot], s.next[slot]
	var buf dna.SeqBuffer
	for bases := 0; i < len(part) && (bases == 0 || bases+len(part[i].Seq) <= s.maxBases); i++ {
		bases += len(part[i].Seq)
		buf.AppendRead(part[i].Seq)
	}
	s.next[slot] = i
	return buf.Data(), i < len(part), nil
}

// TestUnevenTailDrain pins the last-chunk boundary fix: ranks with wildly
// uneven inputs — including a rank with no reads at all — must keep
// participating in the collectives until the longest rank drains, a
// final partial chunk below the cap must still be counted, and the
// result must match the oracle.
func TestUnevenTailDrain(t *testing.T) {
	reads := testReads(t, 9_000, 4)
	cfg := Default(smallGPULayout(1), KmerMode)
	const roundBases = 2_500
	p := cfg.Layout.Ranks()
	// Skewed hand-built split: rank 0 gets nearly everything, rank 1 a
	// single read, the rest nothing.
	parts := make([][]fastq.Record, p)
	parts[0], parts[1] = reads[:len(reads)-1], reads[len(reads)-1:]
	rs, seats, err := newRunState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.world(nil, newSplitSource(roundBases, parts...), seats, nil, nil); err != nil {
		t.Fatal(err)
	}
	res := rs.result()
	// Every rank ran as many rounds as the heaviest one's chunks.
	heaviest, want := newSplitSource(roundBases, parts[0]), 0
	for more := true; more; want++ {
		_, more, _ = heaviest.deal(0, want)
	}
	if res.Rounds != want {
		t.Fatalf("rounds=%d, want %d", res.Rounds, want)
	}
	if res.Rounds < 3 {
		t.Fatalf("want a multi-round run, got %d", res.Rounds)
	}
	checkAgainstOracle(t, cfg, reads, res)
}

func TestMultiRoundMatchesSingleRound(t *testing.T) {
	// §III-A: multi-round execution must not change results; only the
	// per-round buffer sizes differ. A rank parses round r+1 while a slow
	// peer may still be counting round r: a send row that aliased the
	// round's base buffer would be overwritten under that peer (and
	// reported under -race).
	reads := testReads(t, 15_000, 6)
	cpu := cluster.SummitCPU(1)
	cpu.RanksPerNode, cpu.Net.RanksPerNode = 6, 6
	for _, tc := range []struct {
		engine string
		layout cluster.Layout
		mode   Mode
	}{
		{"gpu", smallGPULayout(1), KmerMode},
		{"gpu", smallGPULayout(1), SupermerMode},
		{"cpu", cpu, KmerMode},
	} {
		single := Default(tc.layout, tc.mode)
		resS, err := Run(single, reads)
		if err != nil {
			t.Fatal(err)
		}
		if resS.Rounds != 1 {
			t.Fatalf("%s %s: single-round run reports %d rounds", tc.engine, tc.mode, resS.Rounds)
		}
		name := fmt.Sprintf("%s %s", tc.engine, tc.mode)
		multi := single
		multi.MemBudgetBytes = roundBudget(multi, 5_000) // forces several rounds per rank
		resM, err := Run(multi, reads)
		if err != nil {
			t.Fatal(err)
		}
		if resM.Rounds < 2 {
			t.Fatalf("%s: expected multiple rounds, got %d", name, resM.Rounds)
		}
		if resS.TotalKmers != resM.TotalKmers || resS.DistinctKmers != resM.DistinctKmers {
			t.Fatalf("%s: rounds changed results: %d/%d vs %d/%d", name,
				resS.TotalKmers, resS.DistinctKmers, resM.TotalKmers, resM.DistinctKmers)
		}
		if !reflect.DeepEqual(resM.Histogram.Counts, resS.Histogram.Counts) || !reflect.DeepEqual(resM.TopKmers, resS.TopKmers) {
			t.Fatalf("%s: rounds changed the histogram or the top k-mers", name)
		}
		// Supermer boundaries are window-relative to each round's buffer,
		// so the supermer count may shift by a handful of splits across
		// rounds; the k-mer content (checked above) is what must match.
		ratio := float64(resM.ItemsExchanged) / float64(resS.ItemsExchanged)
		if ratio < 0.99 || ratio > 1.01 {
			t.Fatalf("%s: exchanged items differ too much: %d vs %d", name, resS.ItemsExchanged, resM.ItemsExchanged)
		}
		checkAgainstOracle(t, multi, reads, resM)
	}
}

// TestDrainedRankReleasesBases pins the producer's release: a seat's base
// buffers stay while the input continues and are let go with the chunk
// that ends it — a one-round seat's first parse — while the bases that
// parse reads stay intact; the deals after the end allocate none.
func TestDrainedRankReleasesBases(t *testing.T) {
	reads := readsOf(10, 20, 30)
	var want dna.SeqBuffer
	for _, rd := range reads {
		want.AppendRead(rd.Seq)
	}
	p := newChunkProducer(Config{}, fastq.NewSliceSource(reads), 60, 1, 0)
	data, more, err := p.deal(0, 0)
	if err != nil || more {
		t.Fatalf("one-round deal: more %v, err %v", more, err)
	}
	if !bytes.Equal(data, want.Data()) {
		t.Fatalf("bases %q, want %q", data, want.Data())
	}
	if c := cap(p.bufs[0][0]); c != 0 {
		t.Fatalf("drained seat still holds a base buffer of capacity %d", c)
	}

	p = newChunkProducer(Config{}, fastq.NewSliceSource(reads), 30, 1, 0)
	if _, more, _ := p.deal(0, 0); !more || cap(p.bufs[0][0]) == 0 {
		t.Fatalf("first of several rounds: more %v, capacity %d; want true and the buffer kept", more, cap(p.bufs[0][0]))
	}
	if _, more, _ := p.deal(0, 1); more || cap(p.bufs[0][0]) != 0 || cap(p.bufs[0][1]) != 0 {
		t.Fatalf("last round: more %v, capacities %d and %d; want false and 0", more, cap(p.bufs[0][0]), cap(p.bufs[0][1]))
	}
	if data, more, _ := p.deal(0, 2); len(data) != 0 || more || cap(p.bufs[0][0]) != 0 {
		t.Fatalf("drained deal: %d bases, more %v, capacity %d", len(data), more, cap(p.bufs[0][0]))
	}
}

func TestMultiRoundCPU(t *testing.T) {
	reads := testReads(t, 10_000, 5)
	layout := cluster.SummitCPU(1)
	layout.RanksPerNode = 8
	layout.Net.RanksPerNode = 8
	cfg := Default(layout, SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 3_000)
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 {
		t.Fatalf("expected multi-round CPU run, got %d rounds", res.Rounds)
	}
	checkAgainstOracle(t, cfg, reads, res)
}

// overlapBounds returns the range Result.ModeledTotal must lie in: from
// max(compute, exchange) plus a spilled run's pass-2 count, everything
// overlapped, to the bulk-synchronous Modeled.Total.
func overlapBounds(res *Result) (lo, hi time.Duration) {
	compute, drain := res.Modeled.Parse+res.Modeled.Count, time.Duration(0)
	if res.Spilled {
		compute, drain = res.Modeled.Parse, res.Modeled.Count
	}
	return max(compute, res.Modeled.Exchange) + drain, res.Modeled.Total()
}

// TestModeledTotal pins the overlapped price of R equal rounds,
// (R−1)/R·max(C, E) + (C+E)/R plus a spilled run's pass 2, where C is the
// compute a round overlaps (parse, plus count unless the run spilled) and
// E the exchange.
func TestModeledTotal(t *testing.T) {
	const ms, us = time.Millisecond, time.Microsecond
	for _, tc := range []struct {
		name                   string
		rounds                 int
		spilled                bool
		parse, exchange, count time.Duration
		want                   time.Duration
	}{
		// One round has nothing to overlap: it pays every phase.
		{"one round", 1, false, 30 * ms, 100 * ms, 10 * ms, 140 * ms},
		{"one spilled round", 1, true, 30 * ms, 100 * ms, 10 * ms, 140 * ms},
		// 3/4·100 + 140/4: three rounds at the exchange, one fill and drain.
		{"exchange-bound", 4, false, 30 * ms, 100 * ms, 10 * ms, 110 * ms},
		// 3/4·40 + 60/4: the exchange hides behind the compute.
		{"compute-bound", 4, false, 30 * ms, 20 * ms, 10 * ms, 45 * ms},
		// 3/4·40 + 45/4: a small exchange still prices under the 45 ms
		// bulk-synchronous total.
		{"compute-bound, small exchange", 4, false, 30 * ms, 5 * ms, 10 * ms, 41_250 * us},
		// ooc-spill-hs54's terms: 14/15·4.128 + 5.649/15 + 4.936, above the
		// 9.064 ms its exchange and pass 2 take back to back.
		{"spilled", 15, true, 1_521 * us, 4_128 * us, 4_936 * us, 9_165_400 * time.Nanosecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := &Result{Rounds: tc.rounds, Spilled: tc.spilled}
			res.Modeled = PhaseBreakdown{Parse: tc.parse, Exchange: tc.exchange, Count: tc.count}
			got := res.ModeledTotal()
			if got != tc.want {
				t.Fatalf("ModeledTotal = %v, want %v", got, tc.want)
			}
			if lo, hi := overlapBounds(res); got < lo || got > hi {
				t.Fatalf("ModeledTotal = %v, outside [%v, %v]", got, lo, hi)
			}
		})
	}
}

// TestMultiRoundRunsOverlap prices real multi-round runs, clean and with
// injected faults, for every engine, mode and node width (3 nodes of 2, or
// a ragged 4+2): each run matches the serial oracle, and its overlapped
// price lies in its bounds and hides, of its bulk-synchronous total,
// (R−1)/R of the shorter of compute and exchange (to the nanosecond).
func TestMultiRoundRunsOverlap(t *testing.T) {
	reads := testReads(t, 20_000, 8)
	faults := map[string]fault.Config{
		"clean": {},
		"faulted": {
			Seed: 11, Delay: 0.1, DelayFor: 200 * time.Microsecond,
			Drop: 0.04, Corrupt: 0.04,
		},
	}
	for engName, layout := range faultEngines() {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			for fName, fc := range faults {
				for _, width := range []int{2, 4} {
					t.Run(fmt.Sprintf("%s/%s/%s/width=%d", engName, mode, fName, width), func(t *testing.T) {
						cfg := Default(layout, mode)
						cfg.MemBudgetBytes = roundBudget(cfg, 6000)
						cfg.Fault = fc
						// Several fabric nodes out of the 6 test ranks, so the
						// run prices a fabric exchange.
						cfg.Layout.Net.RanksPerNode = width
						res, err := Run(cfg, reads)
						if err != nil {
							t.Fatal(err)
						}
						if res.Rounds < 2 {
							t.Fatalf("want a multi-round run, got %d rounds", res.Rounds)
						}
						if fc.Seed != 0 && res.TotalFaults().Retries == 0 {
							t.Fatal("no round retried; pick a seed that faults")
						}
						checkAgainstOracle(t, cfg, reads, res)
						lo, hi := overlapBounds(res)
						got := res.ModeledTotal()
						if got < lo || got > hi {
							t.Fatalf("overlapped total %v over %d rounds, want within [%v, %v]", got, res.Rounds, lo, hi)
						}
						compute := res.Modeled.Parse + res.Modeled.Count
						rounds := time.Duration(res.Rounds)
						want := (rounds - 1) * min(compute, res.Modeled.Exchange) / rounds
						if hidden := hi - got; hidden < want || hidden > want+1 {
							t.Fatalf("overlapped total %v hides %v of %v over %d rounds, want %v", got, hidden, hi, res.Rounds, want)
						}
					})
				}
			}
		}
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
