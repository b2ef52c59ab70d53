package pipeline

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/obs"
	recov "dedukt/internal/recover"
)

// sliceReopen is the Ckpt.Reopen for an in-memory read set: a fresh
// SliceSource fast-forwarded to the cursor, like reopening input files.
func sliceReopen(reads []fastq.Record) func(fastq.Cursor) (fastq.Source, error) {
	return func(c fastq.Cursor) (fastq.Source, error) {
		s := fastq.NewSliceSource(reads)
		if err := s.SeekCursor(c); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// ckptConfig enables checkpointing into dir for an in-memory read set.
func ckptConfig(cfg Config, dir string, reads []fastq.Record, every int, noShrink bool) Config {
	cfg.Ckpt = CkptConfig{Dir: dir, Every: every, NoShrink: noShrink, Reopen: sliceReopen(reads)}
	return cfg
}

// TestKillResumeShrinkEquivalence is the equivalence matrix of the
// recovery subsystem: a run with a seeded fatal kill at a fixed round,
// completed either by offline resume (-resume semantics: the failed
// run's checkpoint continues in a fresh world) or by in-place shrink
// recovery (survivors absorb the dead rank), must be bit-identical —
// counts, histogram, top-k — to the unfaulted run, under both the serial
// and the overlapped schedule and on both engines.
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
					base.RoundBases = 350 // many rounds: kills and checkpoints mid-run
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

					// Path 2: same kill with shrink recovery enabled — the
					// run completes in one go, survivors absorbing rank 1.
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
	base.RoundBases = 600
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
// configuration must never resume under another — k, engine, ranks, or
// input list changes surface as durable.ErrMismatch.
func TestResumeRefusesMismatchedConfig(t *testing.T) {
	reads := testReads(t, 6_000, 3)
	dir := t.TempDir()
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), dir, reads, 2, true)
	cfg.RoundBases = 600
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 0, FatalRound: 5}
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

// TestCheckpointConfigRejections pins the structured configuration
// errors: checkpointing requires streaming, a cursor-capable source, and
// a Reopen hook.
func TestCheckpointConfigRejections(t *testing.T) {
	reads := testReads(t, 2_000, 2)
	cfg := ckptConfig(Default(smallGPULayout(1), KmerMode), t.TempDir(), reads, 2, false)
	if _, err := Run(cfg, reads); err == nil {
		t.Fatal("in-memory Run must reject checkpointing")
	}
	if _, err := RunStream(cfg, &failingSource{left: 4, err: errors.New("x")}); err == nil {
		t.Fatal("a cursor-less source must be rejected when checkpointing")
	}
	noReopen := cfg
	noReopen.Ckpt.Reopen = nil
	if _, err := RunStream(noReopen, fastq.NewSliceSource(reads)); err == nil {
		t.Fatal("Dir without Reopen must be rejected")
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
	cfg.RoundBases = 600
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
