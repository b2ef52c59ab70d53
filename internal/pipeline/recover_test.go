package pipeline

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// ckptConfig enables checkpointing into dir for an in-memory read set.
func ckptConfig(cfg Config, dir string, reads []fastq.Record, every int, noShrink bool) Config {
	cfg.Ckpt = CkptConfig{Dir: dir, Every: every, NoShrink: noShrink, Reopen: sliceReopen(reads)}
	return cfg
}

// TestKillResumeShrinkEquivalence is the equivalence matrix of the
// recovery subsystem: a run with a seeded fatal kill at a fixed round,
// completed either by offline resume (-resume semantics: the failed
// run's checkpoint continues in a fresh world) or by the in-process
// restart (the survivors continue from the last checkpoint in a smaller
// world, absorbing the dead rank's keys), must be bit-identical —
// counts, histogram, top-k — to the unfaulted run, with Overlap on and
// off, on both engines and both exchange strategies.
func TestKillResumeShrinkEquivalence(t *testing.T) {
	reads := testReads(t, 8_000, 6)
	matrix := []struct {
		eng  string
		mode Mode
	}{
		{"gpu", KmerMode},
		{"gpu", SupermerMode},
		{"cpu", KmerMode},
		{"cpu", SupermerMode},
	}
	for _, mx := range matrix {
		layout := smallGPULayout(1)
		if mx.eng == "cpu" {
			layout = smallCPULayout()
		}
		for _, overlap := range []bool{false, true} {
			for _, exch := range []Exchange{ExchangeFlat, ExchangeHier} {
				name := mx.eng + "/" + mx.mode.String() + "/overlap=" + map[bool]string{false: "off", true: "on"}[overlap] + "/" + exch.String()
				t.Run(name, func(t *testing.T) {
					base := Default(layout, mx.mode)
					base.Overlap = overlap
					base.Exchange = exch
					if exch == ExchangeHier {
						// 3 fabric nodes of 2: the kill at rank 1 shrinks a
						// node to a single member mid-run, and the recovered
						// 5-rank world regroups ragged (2,2,1).
						base.Layout.Net.RanksPerNode = 2
					}
					base.MemBudgetBytes = roundBudget(base, 350) // many rounds: kills and checkpoints mid-run
					want, err := RunStream(base, fastq.NewSliceSource(reads))
					if err != nil {
						t.Fatal(err)
					}
					if want.Rounds < 7 {
						t.Fatalf("only %d rounds; the kill round would not be reached", want.Rounds)
					}
					checkAgainstOracle(t, base, reads, want)

					// Path 1: kill with NoShrink — the run fails, the
					// checkpoint resumes it offline, bit-identical.
					dir := t.TempDir()
					faulted := ckptConfig(base, dir, reads, 2, true)
					faulted.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 5}
					_, err = RunStream(faulted, fastq.NewSliceSource(reads))
					if !errors.Is(err, fault.ErrKilled) {
						t.Fatalf("NoShrink kill: want ErrKilled, got %v", err)
					}
					resumed := ckptConfig(base, dir, reads, 2, true)
					got, err := ResumeStream(resumed)
					if err != nil {
						t.Fatal(err)
					}
					sameCounts(t, want, got)
					if got.Incomplete {
						t.Fatal("resumed run flagged incomplete")
					}
					if !got.Resumed {
						t.Fatal("Resumed not set on a ResumeStream result")
					}
					if got.Rounds != want.Rounds {
						t.Fatalf("resumed Rounds = %d, unfaulted %d", got.Rounds, want.Rounds)
					}
					if got.InputReads != want.InputReads || got.InputBases != want.InputBases {
						t.Fatalf("resumed input tally %d/%d, unfaulted %d/%d",
							got.InputReads, got.InputBases, want.InputReads, want.InputBases)
					}

					// Path 2: same kill with the restart enabled — the run
					// completes in one go, survivors absorbing rank 1.
					rec := obs.NewRecorder(layout.Ranks())
					shrunk := ckptConfig(base, t.TempDir(), reads, 2, false)
					shrunk.Fault = faulted.Fault
					shrunk.Obs = rec
					got2, err := RunStream(shrunk, fastq.NewSliceSource(reads))
					if err != nil {
						t.Fatal(err)
					}
					sameCounts(t, want, got2)
					if got2.Incomplete {
						t.Fatal("shrink-recovered run flagged incomplete")
					}
					if !got2.Recovered {
						t.Fatal("Recovered not set after shrink recovery")
					}
					if len(got2.DeadRanks) != 1 || got2.DeadRanks[0] != 1 {
						t.Fatalf("DeadRanks = %v, want [1]", got2.DeadRanks)
					}
					if got2.Checkpoints == 0 {
						t.Fatal("no checkpoints recorded before the kill")
					}
					shrinks, ckpts := 0, 0
					for _, in := range rec.Instants() {
						switch in.Name {
						case obs.EvShrink:
							shrinks++
						case obs.EvCkpt:
							ckpts++
						}
					}
					if shrinks == 0 || ckpts == 0 {
						t.Fatalf("recovery instants missing: %d shrink, %d ckpt", shrinks, ckpts)
					}
					// The failed world's work still counts, and the one
					// injector of the run saw the one kill.
					if got2.ItemsExchanged <= want.ItemsExchanged {
						t.Fatalf("recovered run exchanged %d items, unfaulted %d: the failed world's work is lost",
							got2.ItemsExchanged, want.ItemsExchanged)
					}
					if k := killedTotal(got2); k != 1 {
						t.Fatalf("recovered run counts %d kills, want 1", k)
					}
				})
			}
		}
	}
}

// TestShrinkRecoveryWithoutCheckpoint: a rank dies before the first
// checkpoint ever lands — survivors replay from the very start of the
// stream and still produce the exact spectrum.
func TestShrinkRecoveryWithoutCheckpoint(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	base := Default(smallGPULayout(1), KmerMode)
	base.MemBudgetBytes = roundBudget(base, 600)
	want, err := RunStream(base, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(base, t.TempDir(), reads, 100, false) // period > total rounds
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 2, FatalRound: 2}
	got, err := RunStream(cfg, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, want, got)
	if !got.Recovered || got.Incomplete {
		t.Fatalf("Recovered=%v Incomplete=%v, want true/false", got.Recovered, got.Incomplete)
	}
	if got.Checkpoints != 0 {
		t.Fatalf("Checkpoints = %d, want 0 (period exceeds the run)", got.Checkpoints)
	}
}

// TestResumeRefusesMismatchedConfig: a checkpoint taken under one
// configuration must never resume under another — k, engine, ranks,
// input list or balanced-partition changes surface as durable.ErrMismatch.
func TestResumeRefusesMismatchedConfig(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	dir := t.TempDir()
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), dir, reads, 2, true)
	cfg.MemBudgetBytes = roundBudget(cfg, 600) // five rounds, a checkpoint after round 1
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 0, FatalRound: 3}
	if _, err := RunStream(cfg, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	bad := cfg
	bad.Fault = fault.Config{}
	bad.K = 19
	if _, err := ResumeStream(bad); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("k change: want ErrMismatch, got %v", err)
	}
	bad = cfg
	bad.Fault = fault.Config{}
	bad.Ckpt.Inputs = []recov.InputFile{{Path: "other.fastq", Size: 1}}
	if _, err := ResumeStream(bad); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("input change: want ErrMismatch, got %v", err)
	}
	// A balanced Run's slices are partitioned by its minimizer map, which a
	// stream (hash-partitioned) cannot continue.
	balanced := ckptConfig(Default(smallGPULayout(1), SupermerMode), t.TempDir(), reads, 2, true)
	balanced.BalancedPartition, balanced.MemBudgetBytes, balanced.Fault = true, roundBudget(balanced, 600), cfg.Fault
	if _, err := Run(balanced, reads); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("balanced setup kill: %v", err)
	}
	bad = balanced
	bad.Fault, bad.BalancedPartition = fault.Config{}, false
	if _, err := ResumeStream(bad); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("balanced partition dropped: want ErrMismatch, got %v", err)
	}
}

// TestResumeRefusesOtherOrdering: a supermer run's minimizer ordering
// decides every k-mer's owner rank, so a checkpoint taken under kmc2 must
// not resume under the value ordering.
func TestResumeRefusesOtherOrdering(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	cfg := ckptConfig(Default(smallGPULayout(1), SupermerMode), t.TempDir(), reads, 2, true)
	cfg.Ord = minimizer.NewKMC2(cfg.Enc)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 0, FatalRound: 3}
	if _, err := RunStream(cfg, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	bad := cfg
	bad.Fault, bad.Ord = fault.Config{}, minimizer.Value{}
	if _, err := ResumeStream(bad); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("ordering change: want ErrMismatch, got %v", err)
	}
	same := cfg
	same.Fault = fault.Config{}
	if _, err := ResumeStream(same); err != nil {
		t.Fatalf("same ordering: %v", err)
	}
}

// TestResumeWithoutCheckpoint: -resume on a directory with no manifest
// is a structured ErrNoCheckpoint, not a crash or a silent fresh run.
func TestResumeWithoutCheckpoint(t *testing.T) {
	reads := testReads(t, 2_000, 2)
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), t.TempDir(), reads, 2, true)
	if _, err := ResumeStream(cfg); !errors.Is(err, recov.ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

// TestCheckpointConfigRejections pins the structured errors that are not
// combination rules (those are TestAllVariantsMatchOracle's): a
// checkpointed run needs a cursor-capable source and a non-negative period.
func TestCheckpointConfigRejections(t *testing.T) {
	reads := testReads(t, 2_000, 2)
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), t.TempDir(), reads, 2, false)
	if _, err := RunStream(cfg, &failingSource{left: 4, err: errors.New("x")}); err == nil {
		t.Fatal("a cursor-less source must be rejected when checkpointing")
	}
	negEvery := cfg
	negEvery.Ckpt.Every = -1
	if _, err := RunStream(negEvery, fastq.NewSliceSource(reads)); err == nil {
		t.Fatal("negative checkpoint period must be rejected")
	}
}

// TestCheckpointCleanupKeepsLatestRound: after a checkpointed run, the
// directory holds exactly one round's files plus the manifest — stale
// rounds and tmp files are gone, and the manifest round matches the
// surviving rank files.
func TestCheckpointCleanupKeepsLatestRound(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	dir := t.TempDir()
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), dir, reads, 2, true)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	res, err := RunStream(cfg, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want ≥ 2 so cleanup had work to do", res.Checkpoints)
	}
	man, err := recov.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := map[string]bool{filepath.Base(recov.ManifestPath(dir)): true}
	for slot := range man.Survivors {
		wantFiles[filepath.Base(recov.RankFilePath(dir, man.Round, slot))] = true
	}
	for _, e := range entries {
		if !wantFiles[e.Name()] {
			t.Fatalf("unexpected leftover %q in checkpoint dir", e.Name())
		}
		delete(wantFiles, e.Name())
	}
	for name := range wantFiles {
		t.Fatalf("missing checkpoint file %q", name)
	}
}

// killedTotal sums the injected kills over a result's ranks.
func killedTotal(res *Result) uint64 {
	var n uint64
	for _, c := range res.Faults {
		n += c.Killed
	}
	return n
}

// TestTwoDeathsInOneRun: a second rank dies in the world that restarted
// after the first death, and the run still completes exactly. The fatal
// kill takes rank 1 at round 3; seed 4's kill roll at probability 0.004
// fires once over the run, for rank 2 at round 12 — the rank that
// inherited rank 1's keys — so the second restart hands both slices to
// rank 3.
func TestTwoDeathsInOneRun(t *testing.T) {
	reads := testReads(t, 8_000, 6)
	base := Default(smallGPULayout(1), KmerMode)
	base.MemBudgetBytes = roundBudget(base, 350)
	want, err := RunStream(base, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(base, t.TempDir(), reads, 2, false)
	cfg.Fault = fault.Config{Seed: 4, Kill: 0.004, FatalKill: true, FatalRank: 1, FatalRound: 3}
	got, err := RunStream(cfg, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.DeadRanks, []int{1, 2}) {
		t.Fatalf("DeadRanks = %v, want [1 2]", got.DeadRanks)
	}
	sameCounts(t, want, got)
	checkAgainstOracle(t, base, reads, got)
	if k := killedTotal(got); k != 2 {
		t.Fatalf("Faults count %d kills, want 2", k)
	}
}

// TestRestartClosesAbandonedInput: a restart closes the half-read source
// it abandons. Ten runs over an opened FASTQ file, each losing a rank
// mid-stream, must leave no descriptor behind; the collector is off, so a
// leaked file cannot be closed by its finalizer instead.
func TestRestartClosesAbandonedInput(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	paths := writeGzFiles(t, testReads(t, 6_000, 3), 1)
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	cfg.Ckpt = CkptConfig{Dir: t.TempDir(), Every: 100, Reopen: func(c fastq.Cursor) (fastq.Source, error) {
		s, err := fastq.OpenStream(paths...)
		if err != nil {
			return nil, err
		}
		return s, s.SeekCursor(c)
	}}
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 2, FatalRound: 2}
	before := openFiles(t)
	for range 10 {
		src, err := fastq.OpenStream(paths...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStream(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Recovered {
			t.Fatal("the run did not restart")
		}
	}
	if after := openFiles(t); after > before {
		t.Fatalf("%d files open after 10 recoveries, %d before", after, before)
	}
}

// openFiles counts the process's open descriptors, skipping the test where
// /proc/self/fd is unavailable.
func openFiles(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	return len(ents)
}

// TestReopenFailureFailsOnce: when the input cannot be reopened at the
// checkpoint, the restart calls Reopen once and fails the run with its
// error.
func TestReopenFailureFailsOnce(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	gone := errors.New("input gone")
	calls := 0
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	cfg.Ckpt = CkptConfig{Dir: t.TempDir(), Every: 2, Reopen: func(fastq.Cursor) (fastq.Source, error) {
		calls++
		return nil, gone
	}}
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 3}
	_, err := RunStream(cfg, fastq.NewSliceSource(reads))
	if !errors.Is(err, gone) {
		t.Fatalf("want the Reopen error, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("Reopen called %d times, want 1", calls)
	}
}

// TestRestartable pins which failed worlds restart on their survivors:
// only those whose every failure is a kill or a peer's death, with a
// survivor left.
func TestRestartable(t *testing.T) {
	kill := fmt.Errorf("pipeline: rank 1 at round 3: %w", fault.ErrKilled)
	peer := fmt.Errorf("exchange: %w", fmt.Errorf("mpisim: rank 1 dead: %w", mpisim.ErrPeerDead))
	deadline := fmt.Errorf("mpisim: waited 1s in a collective: %w", mpisim.ErrDeadline)
	panicked := errors.New("mpisim: rank panicked: index out of range")
	full := &fs.PathError{Op: "write", Path: "r0003-s0002.ckpt", Err: syscall.ENOSPC}
	lost := fmt.Errorf("%w: round 2 has 12 bad frames after %d retries", ErrExchangeLost, maxRetries)
	for _, c := range []struct {
		name   string
		errs   []error
		killed []int
		ok     bool
	}{
		{"kill + peer-dead", []error{peer, kill, peer, kill}, []int{1, 3}, true},
		{"deadline", []error{deadline, deadline, peer}, nil, false},
		{"panic", []error{peer, panicked, peer}, nil, false},
		{"I/O error", []error{peer, kill, full}, nil, false},
		{"all killed", []error{kill, kill}, nil, false},
		{"exchange lost", []error{lost, lost, lost}, nil, false},
	} {
		killed, ok := restartable(c.errs)
		if ok != c.ok || (ok && !slices.Equal(killed, c.killed)) {
			t.Errorf("%s: restartable = %v, %v; want %v, %v", c.name, killed, ok, c.killed, c.ok)
		}
	}
}
