package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"dedukt/internal/cluster"
	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/fault"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	recov "dedukt/internal/recover"
)

// spillLeftovers lists the spill artifacts (bins and temps) remaining in
// dir.
func spillLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.Contains(e.Name(), spillExt) {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestSpillMatchesInMemory is the out-of-core equivalence property at the
// heart of the spill mode: across engines, modes, streaming, node widths,
// randomized k/m/window choices, and recoverable fault injection, the two-pass spill
// path must reproduce the in-memory
// spectrum bit-for-bit — counts, histogram, top-k, and per-rank loads —
// and leave no bin files behind on success.
func TestSpillMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type tcase struct {
		engine   string
		mode     Mode
		streamed bool
		faulted  bool
		width    int
	}
	var cases []tcase
	for _, engine := range []string{"gpu", "cpu"} {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			for _, streamed := range []bool{false, true} {
				for _, faulted := range []bool{false, true} {
					for _, width := range nodeWidths {
						cases = append(cases, tcase{engine, mode, streamed, faulted, width})
					}
				}
			}
		}
	}
	for i, tc := range cases {
		// Canonical folding runs on every other k-mer case, alternating
		// with the node width and the faults so it meets both.
		canonical := tc.mode == KmerMode && (i^i>>1)&1 == 0
		name := fmt.Sprintf("%s/%s/stream=%v/faulted=%v/width=%d",
			tc.engine, tc.mode, tc.streamed, tc.faulted, tc.width)
		// Per-case randomized operating point and dataset.
		k := []int{15, 17, 21}[rng.Intn(3)]
		m := []int{5, 7}[rng.Intn(2)]
		window := []int{9, 15}[rng.Intn(2)]
		reads := testReads(t, 6_000+rng.Intn(4_000), 3+rng.Float64()*2)
		t.Run(name, func(t *testing.T) {
			layout := smallGPULayout(1)
			if tc.engine == "cpu" {
				layout = smallCPULayout()
			}
			cfg := Default(layout, tc.mode)
			cfg.K, cfg.M, cfg.Window = k, m, window
			cfg.Canonical = canonical
			cfg.Layout.Net.RanksPerNode = tc.width
			if tc.faulted {
				cfg.Fault = fault.Config{
					Seed: uint64(200 + i), Delay: 0.02, DelayFor: 100 * time.Microsecond,
					Drop: 0.03, Corrupt: 0.02,
				}
			}
			want, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.Spill = SpillConfig{Dir: t.TempDir(), Bins: 7}
			var got *Result
			if tc.streamed {
				scfg.MemBudgetBytes = roundBudget(cfg, 2_500)
				got, err = RunStream(scfg, fastq.NewSliceSource(reads))
			} else {
				got, err = Run(scfg, reads)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !got.Spilled || got.SpillBins != 7 {
				t.Fatalf("spill accounting wrong: Spilled=%v SpillBins=%d", got.Spilled, got.SpillBins)
			}
			if tc.streamed && got.Rounds < 2 {
				t.Fatalf("streamed spill run should be multi-round, got %d rounds", got.Rounds)
			}
			if want.Incomplete || got.Incomplete {
				t.Fatalf("injected faults must recover fully (incomplete: in-memory=%v spilled=%v)",
					want.Incomplete, got.Incomplete)
			}
			sameCounts(t, want, got)
			if !reflect.DeepEqual(want.PerRankKmers, got.PerRankKmers) {
				t.Fatalf("per-rank loads differ:\n in-memory %v\n spilled   %v", want.PerRankKmers, got.PerRankKmers)
			}
			checkAgainstOracle(t, cfg, reads, got)
			if left := spillLeftovers(t, scfg.Spill.Dir); len(left) != 0 {
				t.Fatalf("exact run left spill artifacts behind: %v", left)
			}
		})
	}
}

// TestSpillDefaultBins: the zero Bins value runs with the documented
// default and reports it.
func TestSpillDefaultBins(t *testing.T) {
	reads := testReads(t, 5_000, 3)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.Spill = SpillConfig{Dir: t.TempDir()}
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spilled || res.SpillBins != defaultSpillBins {
		t.Fatalf("Spilled=%v SpillBins=%d, want true/%d", res.Spilled, res.SpillBins, defaultSpillBins)
	}
}

// TestSpillBoundedMemory is the out-of-core counting regression: stream a
// dataset whose spectrum footprint is ≥8× the working-set budget through
// the spill path and assert the sampled peak live heap stays under
// budget + a fixed slack. The in-memory path would hold the full
// per-rank tables — far above that ceiling — so the test fails if
// pass 2 ever regresses to materializing the whole spectrum slice.
func TestSpillBoundedMemory(t *testing.T) {
	const budget = int64(512 << 10)
	// Generate and write the dataset inside a helper so the read slice
	// dies before the baseline measurement. ErrRate 0 keeps the count
	// per genomic k-mer at the coverage; the spectrum is large because
	// the genome is, not because of error noise.
	dataset := func() string {
		g, err := genome.Generate("wide", genome.Config{
			Length: 1_200_000, RepeatFraction: 0.1, RepeatMinLen: 100,
			RepeatMaxLen: 300, GC: 0.5, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		prof := genome.DefaultLongReads()
		prof.MeanLen = 500
		prof.ErrRate = 0
		reads, err := genome.SimulateReads(g, 2, prof)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "wide.fastq")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := fastq.NewWriter(f)
		for _, rec := range reads {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}()

	layout := cluster.SummitCPU(1)
	layout.RanksPerNode = 2
	layout.Net.RanksPerNode = 2
	cfg := Default(layout, KmerMode)
	cfg.MemBudgetBytes = budget
	cfg.Spill = SpillConfig{Dir: t.TempDir(), Bins: 64}

	// Tighten the GC so sampled HeapAlloc tracks live data instead of
	// round-loop garbage awaiting collection.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	sampler := startHeapSampler()

	src, err := fastq.OpenStream(dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	res, err := RunStream(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	peak := sampler.Stop()

	if res.Rounds < 8 {
		t.Fatalf("want a deeply multi-round run, got %d rounds", res.Rounds)
	}
	// The spectrum must genuinely dwarf the budget: at ≥12 bytes per
	// distinct key (packed key + count, before load-factor headroom) the
	// single-table path could not fit budget+slack.
	if res.DistinctKmers*12 < uint64(8*budget) {
		t.Fatalf("spectrum footprint %d bytes is under 8x budget %d", res.DistinctKmers*12, 8*budget)
	}
	// Fixed slack: runtime overhead, the per-bin working-set tables, the
	// spill writers' buffers, and GC lag — everything except a
	// full-spectrum table.
	const slack = 16 << 20
	used := int64(peak) - int64(base.HeapAlloc)
	t.Logf("peak live heap over baseline: %.1f MiB (budget %.1f MiB, %d rounds, %d distinct)",
		float64(used)/(1<<20), float64(budget)/(1<<20), res.Rounds, res.DistinctKmers)
	if used > budget+slack {
		t.Fatalf("peak live heap %d bytes over baseline exceeds budget %d + slack %d", used, budget, slack)
	}
	if left := spillLeftovers(t, cfg.Spill.Dir); len(left) != 0 {
		t.Fatalf("exact run left spill artifacts behind: %v", left)
	}
}

// TestSpillFailedRunReleasesBins: a spill run that fails mid-pass closes
// every bin it opened and leaves no spill file behind, so a failed run
// can neither exhaust the process's descriptors nor make the next run in
// the directory refuse it. Five runs each lose rank 1 at round 3, after
// every rank has written its bins; the collector is off, so a leaked file
// cannot be closed by its finalizer instead. (TestSpillRefusesDirtyDir
// pins what a killed process, which closes nothing, leaves behind.)
func TestSpillFailedRunReleasesBins(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reads := testReads(t, 20_000, 4)
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.MemBudgetBytes = roundBudget(cfg, 2_000)
	cfg.Fault = fault.Config{FatalKill: true, FatalRank: 1, FatalRound: 3}
	before := openFiles(t)
	for range 5 {
		cfg.Spill = SpillConfig{Dir: t.TempDir(), Bins: 8}
		if _, err := Run(cfg, reads); !errors.Is(err, fault.ErrKilled) {
			t.Fatalf("want fault.ErrKilled, got %v", err)
		}
		if left := spillLeftovers(t, cfg.Spill.Dir); len(left) != 0 {
			t.Fatalf("failed run left spill artifacts behind: %v", left)
		}
	}
	if after := openFiles(t); after > before {
		t.Fatalf("%d files open after 5 failed spill runs, %d before", after, before)
	}
}

// TestSpillRefusesDirtyDir: pre-existing spill state — from another
// configuration, an interrupted run, or a completed one — is refused
// with a clear, specific error. Only a clean (or unrelated-files-only)
// directory is accepted.
func TestSpillRefusesDirtyDir(t *testing.T) {
	reads := testReads(t, 4_000, 3)
	mkcfg := func(t *testing.T) Config {
		cfg := Default(smallGPULayout(1), SupermerMode)
		cfg.Spill = SpillConfig{Dir: t.TempDir(), Bins: 4}
		return cfg
	}

	t.Run("unrelated files ignored", func(t *testing.T) {
		cfg := mkcfg(t)
		if err := os.WriteFile(filepath.Join(cfg.Spill.Dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, reads); err != nil {
			t.Fatalf("unrelated file should not block spilling: %v", err)
		}
	})

	t.Run("interrupted tmp refused", func(t *testing.T) {
		// A bin whose durable.File was never committed: the temporary name
		// it leaves is the one the hygiene check refuses.
		cfg := mkcfg(t)
		if _, err := durable.Create(filepath.Join(cfg.Spill.Dir, "r0000-b0001"+spillExt)); err != nil {
			t.Fatal(err)
		}
		if names := spillLeftovers(t, cfg.Spill.Dir); len(names) != 1 || !strings.HasSuffix(names[0], spillTmpSuffix) {
			t.Fatalf("uncommitted bin left %v, want one %s file", names, spillTmpSuffix)
		}
		if _, err := Run(cfg, reads); err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("got %v, want interrupted-run refusal", err)
		}
	})

	t.Run("foreign config refused", func(t *testing.T) {
		cfg := mkcfg(t)
		var buf bytes.Buffer
		if err := durable.WriteHeader(&buf, spillMagic, spillHeader{rank: 0, bin: 0, bins: 4, fphash: 0xdeadbeef}.fields()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.Spill.Dir, "r0000-b0000"+spillExt), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, reads); !errors.Is(err, durable.ErrMismatch) {
			t.Fatalf("got %v, want durable.ErrMismatch", err)
		}
	})

	t.Run("leftover same config refused", func(t *testing.T) {
		cfg := mkcfg(t)
		var buf bytes.Buffer
		h := spillHeader{rank: 0, bin: 0, bins: cfg.Spill.bins(), fphash: buildFingerprint(cfg, fastq.Origin{}).Hash()}
		if err := durable.WriteHeader(&buf, spillMagic, h.fields()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.Spill.Dir, "r0000-b0000"+spillExt), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, reads); err == nil || !strings.Contains(err.Error(), "leftover") {
			t.Fatalf("got %v, want leftover-state refusal", err)
		}
	})

	t.Run("garbage bin refused", func(t *testing.T) {
		cfg := mkcfg(t)
		if err := os.WriteFile(filepath.Join(cfg.Spill.Dir, "r0000-b0000"+spillExt), []byte("not a bin"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, reads); err == nil || !strings.Contains(err.Error(), "unreadable") {
			t.Fatalf("got %v, want unreadable-bin refusal", err)
		}
	})
}

// TestSpillRejectsIncompatibleConfig pins the bin-count range. Which
// features spilling excludes are rows of the combination table, covered by
// TestAllVariantsMatchOracle.
func TestSpillRejectsIncompatibleConfig(t *testing.T) {
	base := func() Config {
		cfg := Default(smallCPULayout(), KmerMode)
		cfg.Spill = SpillConfig{Dir: t.TempDir()}
		return cfg
	}
	if cfg := base(); cfg.Validate() != nil {
		t.Fatalf("baseline spill config should validate: %v", cfg.Validate())
	}
	cases := map[string]Config{}
	nb := base()
	nb.Spill.Bins = -1
	cases["negative bins"] = nb
	hb := base()
	hb.Spill.Bins = maxSpillBins + 1
	cases["huge bins"] = hb
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: want a validation error, got nil", name)
		}
	}
}

// FuzzSpillBin: whatever bytes a spill bin file holds — truncated,
// bit-flipped, or pure garbage — the reader returns nil or an error
// wrapping one of durable's sentinels. It never panics and never
// reports damage as an unstructured error.
func FuzzSpillBin(f *testing.F) {
	// A valid two-record bin as the structural seed.
	var valid bytes.Buffer
	if err := durable.WriteHeader(&valid, spillMagic, spillHeader{rank: 3, bin: 1, bins: 8, fphash: 0x1234}.fields()); err != nil {
		f.Fatal(err)
	}
	rec := appendSpillRecord(nil, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 1)
	rec = appendSpillRecord(rec, bytes.Repeat([]byte{0xab}, 35), 5) // five 7-byte supermer images
	valid.Write(rec)
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:spillHeaderLen])   // header only: clean empty bin
	f.Add(valid.Bytes()[:spillHeaderLen+7]) // truncated record header
	f.Add(valid.Bytes()[:valid.Len()-3])    // truncated payload
	f.Add([]byte(spillMagic))               // magic only
	f.Add([]byte{})                         // empty file
	f.Add([]byte("DKSBwrong version etc..."))
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[spillHeaderLen+14] ^= 0x40 // corrupt a payload byte
	f.Add(flipped)

	// Pass 2 decodes each record with its mode's codec: whichever mode the
	// bin is not from refuses it, and that refusal is damage too.
	structured := func(err error) bool {
		return errors.Is(err, durable.ErrTruncated) || errors.Is(err, durable.ErrChecksum) || errors.Is(err, durable.ErrMismatch)
	}
	sm := supermerCodec{wire: kernels.SupermerWire{K: 17, Window: 8}}
	f.Fuzz(func(t *testing.T, data []byte) {
		err := readSpillBin(bytes.NewReader(data), nil, func(payload []byte, items int) error {
			if items < 0 {
				t.Fatalf("negative item count %d", items)
			}
			if _, err := (kmerCodec{}).unstage(payload, items, nil); err != nil && !structured(err) {
				t.Fatalf("k-mer record: unstructured error %v", err)
			}
			if _, err := sm.unstage(payload, items, nil); err != nil && !structured(err) {
				t.Fatalf("supermer record: unstructured error %v", err)
			}
			return nil
		})
		if err == nil || structured(err) {
			return
		}
		t.Fatalf("unstructured error %v", err)
	})
}

// TestSpillReaderPinsCoordinates: a structurally valid bin belonging to
// a different rank/bin/run is rejected with durable.ErrMismatch when the
// caller pins expected coordinates — a misnamed or cross-wired file can
// never be counted into the wrong partition.
func TestSpillReaderPinsCoordinates(t *testing.T) {
	var buf bytes.Buffer
	h := spillHeader{rank: 2, bin: 5, bins: 8, fphash: 42}
	if err := durable.WriteHeader(&buf, spillMagic, h.fields()); err != nil {
		t.Fatal(err)
	}
	want := h
	if err := readSpillBin(bytes.NewReader(buf.Bytes()), &want, nil); err != nil {
		t.Fatalf("matching coordinates: %v", err)
	}
	for name, w := range map[string]spillHeader{
		"rank":   {rank: 3, bin: 5, bins: 8, fphash: 42},
		"bin":    {rank: 2, bin: 6, bins: 8, fphash: 42},
		"bins":   {rank: 2, bin: 5, bins: 16, fphash: 42},
		"fphash": {rank: 2, bin: 5, bins: 8, fphash: 43},
	} {
		w := w
		if err := readSpillBin(bytes.NewReader(buf.Bytes()), &w, nil); !errors.Is(err, durable.ErrMismatch) {
			t.Fatalf("wrong %s: got %v, want durable.ErrMismatch", name, err)
		}
	}
}

// TestDurableFormatsPinned holds the bytes of a fixed KCD database, rank
// checkpoint file and spill bin to SHA-256 digests: the three layouts are
// formats on disk, and sharing one framing package must not move a byte of
// them. The spill bin goes through the rank's writer and seal.
func TestDurableFormatsPinned(t *testing.T) {
	db := &kcount.Database{K: 21, Flags: kcount.FlagCanonical, Entries: []kcount.KV{
		{Key: 0x1, Count: 2}, {Key: 0x2, Count: 5}, {Key: 0x1234, Count: 300}, {Key: 0xdeadbeef, Count: 1}}}
	var kcd, rank bytes.Buffer
	if err := db.Write(&kcd); err != nil {
		t.Fatal(err)
	}
	if err := recov.WriteRankFile(&rank, 3, 1, 0x0123456789abcdef, db); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := (&spillCtl{dir: dir, bins: 4, fphash: 0x0123456789abcdef}).rank(2)
	s.stage[1] = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x11), 0x22)
	s.items[1] = 2
	if err := s.flushStage(); err != nil {
		t.Fatal(err)
	}
	s.stage[1], s.items[1] = []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 1
	if err := s.flushStage(); err != nil {
		t.Fatal(err)
	}
	if err := s.seal(); err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(s.binPath(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"KCD", kcd.Bytes(), "d8104deda8684dbde1ee8d249e11db68d22cd9caa1eda5fe62f3d4684452d03b"},
		{"rank file", rank.Bytes(), "5aa79c9b5b3337c66af40eccc48c2de6d4abe37e46f1e521179cf7a390db4166"},
		{"spill bin", bin, "155d52d408f0a41ef54c8f8ecb17fc922e9b1a9a283c2df9324b136190df8401"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(c.data)); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
