package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderZeroAlloc pins the overhead contract: a disabled recorder
// must cost zero allocations on every hot-path operation, so instrumented
// code can leave the calls in unconditionally.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var rec *Recorder
	if n := testing.AllocsPerRun(100, func() {
		h := rec.Begin(3, 1, PhaseExchange)
		h.End(time.Millisecond, 42)
		rec.Instant(3, 1, EvDrop)
		_ = rec.Registry()
		_ = rec.Spans()
		_ = rec.Instants()
		_ = rec.Ranks()
	}); n != 0 {
		t.Fatalf("nil recorder allocates %.1f per op, want 0", n)
	}
}

func TestSpanRecording(t *testing.T) {
	rec := NewRecorder(2)
	h := rec.Begin(1, 0, PhaseParse)
	time.Sleep(time.Millisecond)
	h.End(5*time.Millisecond, 17)
	rec.Instant(1, 0, EvCorrupt)

	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Rank != 1 || s.Round != 0 || s.Phase != PhaseParse || s.Items != 17 || s.Modeled != 5*time.Millisecond {
		t.Fatalf("span = %+v", s)
	}
	if s.Start < 0 || s.Dur < time.Millisecond {
		t.Fatalf("span timing: start=%v dur=%v", s.Start, s.Dur)
	}
	ins := rec.Instants()
	if len(ins) != 1 || ins[0].Name != EvCorrupt || ins[0].At < s.Start {
		t.Fatalf("instants = %+v", ins)
	}
}

// TestShardGrowth: ranks beyond the declared world appear on demand, and
// concurrent recording from many goroutines is race-clean (run with -race).
func TestShardGrowth(t *testing.T) {
	rec := NewRecorder(1)
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				h := rec.Begin(rank, round, PhaseCount)
				h.End(0, uint64(rank))
				rec.Instant(rank, round, EvRetry)
			}
		}(rank)
	}
	wg.Wait()
	if got := rec.Ranks(); got != 8 {
		t.Fatalf("ranks = %d, want 8", got)
	}
	if got := len(rec.Spans()); got != 32 {
		t.Fatalf("spans = %d, want 32", got)
	}
	if got := len(rec.Instants()); got != 32 {
		t.Fatalf("instants = %d, want 32", got)
	}
}

func TestBuildReport(t *testing.T) {
	rec := NewRecorder(2)
	add := func(rank, round int, phase string, dur time.Duration, items uint64) {
		sh := rec.shard(rank)
		sh.spans = append(sh.spans, Span{Rank: rank, Round: round, Phase: phase, Dur: dur, Items: items})
	}
	// Round 0: rank 1 counts 3× rank 0's load and is slower.
	add(0, 0, PhaseCount, 1*time.Millisecond, 100)
	add(1, 0, PhaseCount, 4*time.Millisecond, 300)
	// Round 1: balanced.
	add(0, 1, PhaseCount, 2*time.Millisecond, 200)
	add(1, 1, PhaseCount, 2*time.Millisecond, 200)
	rec.Instant(0, 0, EvDrop)
	rec.Instant(0, 0, EvRetry)
	rec.Instant(0, -1, EvDeadline) // roundless event: tallied, no row

	rep := rec.BuildReport()
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rep.Rounds))
	}
	r0 := rep.Rounds[0]
	if r0.Items != 400 || r0.MaxItems != 300 || r0.Imbalance != 1.5 {
		t.Fatalf("round 0 = %+v", r0)
	}
	if r0.SlowestRank != 1 || r0.SlowestWall != 4*time.Millisecond {
		t.Fatalf("round 0 slowest = rank %d %v", r0.SlowestRank, r0.SlowestWall)
	}
	if r0.Retries != 1 || r0.Faults != 1 {
		t.Fatalf("round 0 tallies = %+v", r0)
	}
	r1 := rep.Rounds[1]
	if r1.Imbalance != 1 {
		t.Fatalf("round 1 = %+v", r1)
	}
	if rep.Events[EvDeadline] != 1 {
		t.Fatalf("deadline event lost: %v", rep.Events)
	}
	if rep.SlowestRank != 1 {
		t.Fatalf("run slowest rank = %d, want 1", rep.SlowestRank)
	}
	if rep.PhaseWall[PhaseCount] != 9*time.Millisecond {
		t.Fatalf("count wall = %v", rep.PhaseWall[PhaseCount])
	}

	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"2 ranks, 2 rounds", "deadline_hit", "slowest rank overall: rank 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}

func TestNilReport(t *testing.T) {
	var rec *Recorder
	rep := rec.BuildReport()
	if len(rep.Rounds) != 0 {
		t.Fatalf("nil report rounds = %d", len(rep.Rounds))
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no spans recorded") {
		t.Fatalf("nil report text: %q", sb.String())
	}
}
