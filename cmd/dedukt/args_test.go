package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dedukt/internal/cluster"
	"dedukt/internal/fastq"
	"dedukt/internal/pipeline"
)

// TestParseArgsDefaults: with no flags the command runs the paper's
// operating point, pipeline.Default on a 4-node GPU layout, in memory.
func TestParseArgsDefaults(t *testing.T) {
	cfg, in, _, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := pipeline.Default(cluster.SummitGPU(4), pipeline.SupermerMode); !reflect.DeepEqual(cfg, want) {
		t.Errorf("defaults\n got %+v\nwant %+v", cfg, want)
	}
	if in.entry != pipeline.InMemory || in.stream {
		t.Errorf("defaults select entry %v, stream %v", in.entry, in.stream)
	}
}

// TestParseArgsResume: -resume implies the stream path and checkpoints
// into the directory it resumes.
func TestParseArgsResume(t *testing.T) {
	cfg, in, _, err := parseArgs([]string{"-in", "a.fastq", "-resume", "ck", "-ckpt-rounds", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if in.entry != pipeline.Resuming || !in.stream || cfg.Ckpt.Dir != "ck" || cfg.Ckpt.Every != 3 || cfg.Ckpt.Reopen == nil {
		t.Errorf("-resume: entry %v, stream %v, Ckpt %+v", in.entry, in.stream, cfg.Ckpt)
	}
}

// TestParseArgsInMemoryCkpt: an in-memory run takes a memory budget and
// checkpoints like a stream, leaving Reopen to Run, which re-seeks the
// reads it was given.
func TestParseArgsInMemoryCkpt(t *testing.T) {
	cfg, in, _, err := parseArgs(strings.Fields("-in a.fastq -mem-budget 1k -ckpt-dir ck -fault-kill-rank 1 -fault-kill-round 2"))
	if err != nil {
		t.Fatal(err)
	}
	if in.entry != pipeline.InMemory || in.stream || cfg.MemBudgetBytes != 1<<10 || cfg.Ckpt.Dir != "ck" || cfg.Ckpt.Reopen != nil {
		t.Errorf("entry %v, stream %v, budget %d, Ckpt %+v", in.entry, in.stream, cfg.MemBudgetBytes, cfg.Ckpt)
	}
}

// TestParseArgsBinds: flags land in their Config fields.
func TestParseArgsBinds(t *testing.T) {
	cfg, in, out, err := parseArgs(strings.Fields("-in a.fastq,b.fastq -stream -mem-budget 4M -mode kmer -exchange hier -engine cpu -nodes 2 -encoding lex -ordering kmc2 -canonical -fault-kill-rank 1 -fault-kill-round 9 -okcd x.kcd"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != pipeline.KmerMode || cfg.Exchange != pipeline.ExchangeHier || cfg.Layout.CPU == nil || cfg.Layout.Nodes != 2 ||
		cfg.Enc.Name() != "lex" || cfg.Ord.Name() != "kmc2" || !cfg.Canonical || cfg.MemBudgetBytes != 4<<20 || !cfg.KeepTables {
		t.Errorf("config %+v", cfg)
	}
	if f := cfg.Fault; !f.FatalKill || f.FatalRank != 1 || f.FatalRound != 9 {
		t.Errorf("fatal kill %+v", f)
	}
	if in.entry != pipeline.Streaming || !reflect.DeepEqual(in.paths, []string{"a.fastq", "b.fastq"}) || out.kcd != "x.kcd" {
		t.Errorf("input %+v, output %+v", in, out)
	}
}

// TestParseArgsRejects: every combination the command refuses is refused
// while parsing, before any input is read — the input-selection rules
// here, every other combination by pipeline.Config.Validate.
func TestParseArgsRejects(t *testing.T) {
	for args, want := range map[string]string{
		"-ckpt-rounds 9":                          "Ckpt.Every",
		"-no-shrink":                              "Ckpt.NoShrink",
		"-trimq 20 -ckpt-dir ck":                  "-stream",
		"-gpustats -engine cpu":                   "-gpustats",
		"-fault-kill-rank 24 -fault-kill-round 1": "outside the world",
		"-fault-kill-rank 1":                      "both must be >= 0",
		"-canonical":                              "kmer mode only",
		"-stream":                                 "-in",
		"-resume ck":                              "-in",
		"-in a.fastq -dataset x":                  "mutually exclusive",
		"-in a.fastq -stream -spill-dir s -ckpt-dir ck": "mutually exclusive",
		"-okcd x.kcd -spill-dir s":                      "per-rank tables",
		"-mode read":                                    "unknown mode",
		"-exchange ring":                                "unknown exchange",
		"-encoding ascii":                               "unknown encoding",
		"-engine tpu":                                   "unknown engine",
		"-ordering random":                              "unknown ordering",
		"-mem-budget 1.5G -stream -in a.fastq":          "bad size",
	} {
		_, _, _, err := parseArgs(strings.Fields(args))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %q", args, err, want)
		}
	}
}

// TestInputOpen: one opener serves every path — the in-memory drain, the
// stream and a checkpoint reopen — trimming after it seeks, so a cursor
// addresses the untrimmed records.
func TestInputOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.fastq")
	fq := "@a\nACGTACGTAC\n+\nIIIIIIIIII\n@b\nACGTAC\n+\n######\n@c\nTTGCATTGCA\n+\nIIIIIIIII#\n"
	if err := os.WriteFile(path, []byte(fq), 0o644); err != nil {
		t.Fatal(err)
	}
	in := input{paths: []string{path}, trimQ: 20, k: 5}
	for _, c := range []struct {
		cur  fastq.Cursor
		want []string
	}{
		{fastq.Cursor{}, []string{"ACGTACGTAC", "TTGCATTGC"}},
		{fastq.Cursor{Record: 2}, []string{"TTGCATTGC"}},
	} {
		src, err := in.open(c.cur)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := src.(fastq.CursorSource); !ok {
			t.Fatalf("opened source %T has no cursor", src)
		}
		reads, err := fastq.Drain(src)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range reads {
			got = append(got, string(r.Seq))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("open at %+v: %q, want %q", c.cur, got, c.want)
		}
	}
}

// TestInputOpenStaleCursorClosesFile: a cursor past the input fails the
// open and leaves no file open behind it.
func TestInputOpenStaleCursorClosesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.fastq")
	if err := os.WriteFile(path, []byte("@a\nACGTACGTAC\n+\nIIIIIIIIII\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files")
		}
		return len(ents)
	}
	in := input{paths: []string{path}}
	before := fds()
	for range 20 {
		if _, err := in.open(fastq.Cursor{Record: 9}); err == nil {
			t.Fatal("open past the input succeeded")
		}
	}
	if after := fds(); after >= before+20 {
		t.Fatalf("%d files open after 20 failed opens, %d before", after, before)
	}
}
