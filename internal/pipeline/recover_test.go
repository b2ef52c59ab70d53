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

	"dedukt/internal/cluster"
	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/minimizer"
	"dedukt/internal/mpisim"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// ckptConfig enables checkpointing into dir.
func ckptConfig(cfg Config, dir string, every int, noShrink bool) Config {
	cfg.Ckpt = CkptConfig{Dir: dir, Every: every, NoShrink: noShrink}
	return cfg
}

// TestKillResumeShrinkEquivalence is the equivalence matrix of the
// recovery subsystem: a run with a seeded fatal kill at a fixed round,
// completed either by offline resume (-resume semantics: the failed
// run's checkpoint continues in a fresh world) or by the in-process
// restart (the survivors continue from the last checkpoint in a smaller
// world, absorbing the dead rank's keys), must be bit-identical —
// counts, histogram, top-k — to the unfaulted run, on both engines and
// both node widths, whether the dead rank is rank 1 or rank 0 (the world's
// root). On 3 nodes of 2 the kill shrinks the first node to a single
// member mid-run, and the restarted 5-rank world regroups ragged (2,2,1).
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
		for _, width := range nodeWidths {
			for _, victim := range []int{1, 0} {
				name := fmt.Sprintf("%s/%s/width=%d/victim=%d", mx.eng, mx.mode, width, victim)
				t.Run(name, func(t *testing.T) {
					base := Default(layout, mx.mode)
					base.Layout.Net.RanksPerNode = width
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
					faulted := ckptConfig(base, dir, 2, true)
					faulted.Fault = fault.Config{FatalKill: true, FatalRank: victim, FatalRound: 5}
					_, err = RunStream(faulted, fastq.NewSliceSource(reads))
					if !errors.Is(err, fault.ErrKilled) {
						t.Fatalf("NoShrink kill: want ErrKilled, got %v", err)
					}
					resumed := ckptConfig(base, dir, 2, true)
					got, err := ResumeStream(resumed, fastq.NewSliceSource(reads))
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
					shrunk := ckptConfig(base, t.TempDir(), 2, false)
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
					if len(got2.DeadRanks) != 1 || got2.DeadRanks[0] != victim {
						t.Fatalf("DeadRanks = %v, want [%d]", got2.DeadRanks, victim)
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
	cfg := ckptConfig(base, t.TempDir(), 100, false) // period > total rounds
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
// configuration must never resume under another — k, input list or
// balanced-partition changes surface as durable.ErrMismatch.
func TestResumeRefusesMismatchedConfig(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	dir := t.TempDir()
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), dir, 2, true)
	cfg.MemBudgetBytes = roundBudget(cfg, 600) // five rounds, a checkpoint after round 1
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 0, FatalRound: 3}
	if _, err := RunStream(cfg, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	bad := cfg
	bad.Fault = fault.Config{}
	bad.K = 19
	if _, err := ResumeStream(bad, fastq.NewSliceSource(reads)); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("k change: want ErrMismatch, got %v", err)
	}
	// The same reads from a file: the checkpoint's cursor addressed a slice.
	paths := writeGzFiles(t, reads, 1)
	files, err := fastq.OpenStream(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeStream(cfg, files); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("input change: want ErrMismatch, got %v", err)
	}
	// A balanced Run's slices are partitioned by its minimizer map, which a
	// hash-partitioned run cannot continue.
	balanced := ckptConfig(Default(smallGPULayout(1), SupermerMode), t.TempDir(), 2, true)
	balanced.BalancedPartition, balanced.MemBudgetBytes, balanced.Fault = true, roundBudget(balanced, 600), cfg.Fault
	if _, err := Run(balanced, reads); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("balanced setup kill: %v", err)
	}
	bad = balanced
	bad.Fault, bad.BalancedPartition = fault.Config{}, false
	if _, err := ResumeStream(bad, fastq.NewSliceSource(reads)); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("balanced partition dropped: want ErrMismatch, got %v", err)
	}
}

// TestResumeRefusesOtherTrim: a checkpoint's cursor addresses the raw
// records, and its spectrum the records its trim kept, so a checkpoint
// taken through a quality trim resumes through the same trim alone — bit-
// identically — and is refused with durable.ErrMismatch untrimmed or under
// another minimum quality.
func TestResumeRefusesOtherTrim(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	trimmed := func(minQ int) fastq.Source { return fastq.NewTrimSource(fastq.NewSliceSource(reads), minQ, cfg.K) }
	want, err := RunStream(cfg, trimmed(35))
	if err != nil {
		t.Fatal(err)
	}
	untrimmed, err := RunStream(cfg, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalKmers == untrimmed.TotalKmers {
		t.Fatal("the trim dropped nothing: the test cannot tell the sources apart")
	}
	killed := ckptConfig(cfg, t.TempDir(), 2, true)
	killed.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 3}
	if _, err := RunStream(killed, trimmed(35)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	resume := killed
	resume.Fault = fault.Config{}
	for name, src := range map[string]fastq.Source{"untrimmed": fastq.NewSliceSource(reads), "minQ 20": trimmed(20)} {
		if _, err := ResumeStream(resume, src); !errors.Is(err, durable.ErrMismatch) {
			t.Errorf("%s: want ErrMismatch, got %v", name, err)
		}
	}
	got, err := ResumeStream(resume, trimmed(35))
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, want, got)
	if got.InputReads != want.InputReads || got.InputBases != want.InputBases {
		t.Fatalf("resumed input tally %d/%d, unfaulted %d/%d", got.InputReads, got.InputBases, want.InputReads, want.InputBases)
	}
}

// TestInMemoryCheckpointRestartsOnlyInProcess: a Run's checkpoint addresses
// its slice, which names no files. Its survivors restart from it exactly
// after a rank death, but it does not resume over the files the reads came
// from: the fingerprints differ, durable.ErrMismatch.
func TestInMemoryCheckpointRestartsOnlyInProcess(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	want, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	kill := fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 3}
	restarted := ckptConfig(cfg, t.TempDir(), 2, false)
	restarted.Fault = kill
	got, err := Run(restarted, reads)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Recovered {
		t.Fatal("the run did not restart")
	}
	sameCounts(t, want, got)

	killed := ckptConfig(cfg, t.TempDir(), 2, true)
	killed.Fault = kill
	if _, err := Run(killed, reads); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	files, err := fastq.OpenStream(writeGzFiles(t, reads, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	killed.Fault = fault.Config{}
	if _, err := ResumeStream(killed, files); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("resuming a Run's checkpoint over files: want ErrMismatch, got %v", err)
	}
}

// TestFingerprintKeepsItsHash pins the checkpoint fingerprint of an
// untrimmed two-file stream and of an in-memory run to the hashes they had
// before the trim was fingerprinted, so checkpoint directories written
// then still resume.
func TestFingerprintKeepsItsHash(t *testing.T) {
	files := fastq.Origin{Files: []fastq.File{{Path: "reads/a.fastq", Size: 1234}, {Path: "reads/b.fastq.gz", Size: 99}}}
	if h := buildFingerprint(Default(cluster.SummitGPU(2), SupermerMode), files).Hash(); h != 0xb689ae47fed21358 {
		t.Errorf("two-file stream fingerprint hash %#x, want 0xb689ae47fed21358", h)
	}
	if h := buildFingerprint(Default(cluster.SummitCPU(1), KmerMode), fastq.Origin{}).Hash(); h != 0xdca489810d6be49d {
		t.Errorf("in-memory fingerprint hash %#x, want 0xdca489810d6be49d", h)
	}
}

// TestResumeRefusesOtherOrdering: a supermer run's minimizer ordering
// decides every k-mer's owner rank, so a checkpoint taken under kmc2 must
// not resume under the value ordering.
func TestResumeRefusesOtherOrdering(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	cfg := ckptConfig(Default(smallGPULayout(1), SupermerMode), t.TempDir(), 2, true)
	cfg.Ord = minimizer.NewKMC2(cfg.Enc)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 0, FatalRound: 3}
	if _, err := RunStream(cfg, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	bad := cfg
	bad.Fault, bad.Ord = fault.Config{}, minimizer.Value{}
	if _, err := ResumeStream(bad, fastq.NewSliceSource(reads)); !errors.Is(err, durable.ErrMismatch) {
		t.Fatalf("ordering change: want ErrMismatch, got %v", err)
	}
	same := cfg
	same.Fault = fault.Config{}
	if _, err := ResumeStream(same, fastq.NewSliceSource(reads)); err != nil {
		t.Fatalf("same ordering: %v", err)
	}
}

// TestResumeWithoutCheckpoint: resuming from a directory with no manifest,
// or with no directory at all, is a structured ErrNoCheckpoint, not a
// crash or a silent fresh run. Without Ckpt.Dir no manifest is read, not
// even a valid one in the working directory.
func TestResumeWithoutCheckpoint(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), t.TempDir(), 2, true)
	if _, err := ResumeStream(cfg, fastq.NewSliceSource(reads)); !errors.Is(err, recov.ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}

	// A checkpoint lands in the working directory...
	wd := t.TempDir()
	here := ckptConfig(cfg, wd, 2, true)
	here.MemBudgetBytes = roundBudget(here, 600)
	here.Fault = fault.Config{FatalKill: true, FatalRank: 0, FatalRound: 3}
	if _, err := RunStream(here, fastq.NewSliceSource(reads)); !errors.Is(err, fault.ErrKilled) {
		t.Fatalf("setup kill: %v", err)
	}
	if _, err := recov.LoadManifest(wd); err != nil {
		t.Fatalf("no manifest to tempt the resume: %v", err)
	}
	t.Chdir(wd)
	// ...which a resume without a directory leaves alone.
	none := here
	none.Ckpt, none.Fault = CkptConfig{}, fault.Config{}
	if _, err := ResumeStream(none, fastq.NewSliceSource(reads)); !errors.Is(err, recov.ErrNoCheckpoint) {
		t.Fatalf("without Ckpt.Dir: want ErrNoCheckpoint, got %v", err)
	}
}

// TestCheckpointConfigRejections pins the structured errors that are not
// combination rules (those are TestAllVariantsMatchOracle's): a
// checkpointed or balanced run needs a source that replays — refused before
// a round runs, so the source is never read — and a checkpoint a
// non-negative period.
func TestCheckpointConfigRejections(t *testing.T) {
	reads := testReads(t, 2_000, 2)
	cfg := ckptConfig(Default(smallGPULayout(1), SupermerMode), t.TempDir(), 2, false)
	balanced := Default(smallGPULayout(1), SupermerMode)
	balanced.BalancedPartition = true
	for name, c := range map[string]Config{"checkpoint": cfg, "balanced": balanced} {
		once := &failingSource{left: 4, err: errors.New("x")}
		if _, err := RunStream(c, once); err == nil || once.left != 4 {
			t.Errorf("%s: a source that cannot replay must be refused unread (error %v, %d of 4 records left)", name, err, once.left)
		}
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
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), dir, 2, true)
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
	cfg := ckptConfig(base, t.TempDir(), 2, false)
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
	cfg.Ckpt = CkptConfig{Dir: t.TempDir(), Every: 100}
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

// unreplayable is a slice that fails every Replay, counting the calls.
type unreplayable struct {
	*fastq.SliceSource
	err   error
	calls *int
}

func (u unreplayable) Replay(fastq.Cursor) (fastq.Replayer, error) {
	*u.calls++
	return nil, u.err
}

// TestReplayFailureFailsOnce: a run that neither checkpoints nor balances
// never replays its input; when the input cannot be replayed from the
// checkpoint, the restart calls Replay once and fails the run with its
// error.
func TestReplayFailureFailsOnce(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	gone := errors.New("input gone")
	calls := 0
	cfg := Default(smallGPULayout(1), KmerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 600)
	if _, err := RunStream(cfg, unreplayable{fastq.NewSliceSource(reads), gone, &calls}); err != nil || calls != 0 {
		t.Fatalf("a plain run: error %v after %d replays, want none", err, calls)
	}
	cfg.Ckpt = CkptConfig{Dir: t.TempDir(), Every: 2}
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 3}
	_, err := RunStream(cfg, unreplayable{fastq.NewSliceSource(reads), gone, &calls})
	if !errors.Is(err, gone) {
		t.Fatalf("want the Replay error, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("Replay called %d times, want 1", calls)
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
