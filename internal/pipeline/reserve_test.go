package pipeline

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kmer"
	"dedukt/internal/minimizer"
	"dedukt/internal/obs"
)

// TestGPUTableReservation pins the table-sizing rule through the per-rank
// gauges. The GPU engine never leaves a rank's table past its load ceiling.
// A one-round rank, whose arrival is far beyond minLaunch k-mers, sizes its
// table once from the arrival's sample slice: in either mode it ends at a
// load of 0.45 or more, in at most 2.25 slots a key, after at most three
// grows that rehashed at most an eighth of its keys — the sample's, into the
// table it keeps; in k-mer mode the sample is one launch and the rest at
// most three more. Arrivals under minLaunch k-mers — 4 000-base rounds, spill
// records — are one launch each, and the table they grow is never above the
// slots kcount.NewAtomicTable picks for twice the rank's keys plus minLaunch.
// And all a rank's count allocates for the table is the table it ends with
// (count allocation).
func TestGPUTableReservation(t *testing.T) {
	const bins = 4
	cases := map[string]struct {
		genome   int
		set      func(*Config)
		sampled  bool // every arrival is past minLaunch: the one-round bounds hold
		launches func(res *Result) (lo, hi int)
	}{
		"one round": {400_000, func(*Config) {}, true, func(*Result) (int, int) { return 2, 16 }},
		"rounds":    {20_000, func(c *Config) { c.RoundBases = 4_000 }, false, func(res *Result) (int, int) { return res.Rounds, res.Rounds }},
		"kmer mode": {400_000, func(c *Config) { c.Mode = KmerMode }, true, func(*Result) (int, int) { return 2, 4 }},
		"spill bins": {20_000, func(c *Config) { c.Spill = SpillConfig{Dir: t.TempDir(), Bins: bins} }, false,
			func(*Result) (int, int) { return bins, bins }},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			reads := testReads(t, tc.genome, 8)
			cfg := Default(smallGPULayout(1), SupermerMode)
			tc.set(&cfg)
			rec := obs.NewRecorder(cfg.Layout.Ranks())
			cfg.Obs = rec
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, cfg, reads, res)
			lo, hi := tc.launches(res)
			for rank, kmers := range res.PerRankKmers {
				gauge := func(name string) float64 {
					return rec.Registry().Gauge(name, "", obs.L("rank", strconv.Itoa(rank))).Value()
				}
				slots, load := gauge("pipeline_table_slots"), gauge("pipeline_table_load_factor")
				keys := load * slots // under spill, the fullest bin table's
				if bytes := gauge("pipeline_table_bytes"); bytes != 9*slots {
					t.Errorf("rank %d: %v table bytes for %v slots, want 9 a slot", rank, bytes, slots)
				}
				if load <= 0 || load > tableLoad {
					t.Errorf("rank %d: load factor %.3f outside (0, %.2f]", rank, load, tableLoad)
				}
				if n := int(gauge("pipeline_count_launches")); n < lo || n > hi {
					t.Errorf("rank %d: %d count launches for %d k-mers, want %d to %d", rank, n, kmers, lo, hi)
				}
				grows, moved := gauge("pipeline_table_grows"), gauge("pipeline_table_rehashed_keys")
				if !tc.sampled {
					if most := kcount.NewAtomicTable(2*int(keys)+minLaunch, tableLoad, kcount.Linear).Cap(); cfg.Spill.Dir == "" && slots > float64(most) {
						t.Errorf("rank %d: %v slots for %.0f keys, want at most %v", rank, slots, keys, most)
					}
					continue
				}
				if load < 0.45 || slots > 2.25*keys {
					t.Errorf("rank %d: %v slots for %.0f keys (load %.3f), want a load of 0.45 or more", rank, slots, keys, load)
				}
				if grows > 3 || moved > keys/8 {
					t.Errorf("rank %d: %v keys rehashed by %v grows of a table that ends with %.0f, want at most an eighth by 3", rank, moved, grows, keys)
				}
			}
		})
	}
	t.Run("count allocation", testCountAllocation)
}

// testCountAllocation is TestGPUTableReservation's allocation budget: one
// rank's count of a k-mer arrival, shipped sample first, that takes its table
// from 64 slots to the size its sample asks for may allocate 9 bytes (a key
// and a one-byte count lane) for every slot of the final table and a tenth
// more (the arrival's index, the launches, the rehash bitmaps), and a whole
// segment's worth: the short tail segment a growth replaces is left behind.
func testCountAllocation(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	cfg := Default(smallGPULayout(1), KmerMode)
	var row []uint64
	for _, r := range testReads(t, 100_000, 8) {
		row = kmerRowOf(cfg)(r.Seq, row)
	}
	row = sampleFirst(row)
	counted := func() (uint64, *kcount.AtomicTable) {
		eng, err := newKmerEngine(rankCtx{cfg: cfg, seat: identitySeat(0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.count([][]uint64{row}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, eng.(*gpuEngine[uint64]).table
	}
	counted() // warm the launch pools
	got, table := counted()
	budget := uint64(9*table.Cap()*11/10 + 9<<16)
	t.Logf("allocated %d B counting %d k-mers into %d slots (%d grows, load %.3f), budget %d", got, len(row), table.Cap(), table.Grows(), float64(table.Len())/float64(table.Cap()), budget)
	if load := float64(table.Len()) / float64(table.Cap()); load < 0.45 {
		t.Fatalf("%d keys in %d slots, want a load of 0.45 or more", table.Len(), table.Cap())
	}
	if got > budget {
		t.Errorf("allocated %d B, budget %d: 9 B x the final %d slots x 1.1, and a 2^16-slot segment", got, budget, table.Cap())
	}
}

// countLoopArrival is one test arrival of the count loop: reads of
// nk+k−1 bases (1 ≤ nk ≤ Window, so each is one supermer image or nk packed
// k-mers), cut into the parts a count call receives. A nil part is legal.
type countLoopArrival [][][]byte

// checkedArrival asserts, before and after every launch, what the count rule
// promises of it: a budget of at least one k-mer and at most the table's
// free slots but one, honoured — so the table keeps an empty slot and
// ErrTableFull cannot occur.
type checkedArrival struct {
	arrival
	t        testing.TB
	launches *[3]int // by keySlice
}

func (c checkedArrival) Count(table *kcount.AtomicTable, sel keySlice, from, budget int) (int, int, gpusim.KernelStats, error) {
	free := table.Cap() - table.Len() - 1
	next, kmers, st, err := c.arrival.Count(table, sel, from, budget)
	c.launches[sel]++
	if budget <= 0 || budget > free || kmers > budget {
		c.t.Errorf("a launch took %d k-mers of a budget of %d with %d slots free", kmers, budget, free)
	}
	if table.Len() >= table.Cap() {
		c.t.Errorf("a launch filled the table: %d keys in %d slots", table.Len(), table.Cap())
	}
	return next, kmers, st, err
}

// countLoopEngine builds the mode's GPU engine with every arrival it indexes
// wrapped in a checkedArrival, and returns a count over arrivals of the
// mode's rows, which must leave the table under its load ceiling, and the
// engine's live table.
func countLoopEngine[T unit](t testing.TB, rc rankCtx, newEngine func(rankCtx) (engine[T], error), launches *[3]int) (func([][]T) (work, error), func() *kcount.AtomicTable) {
	eng, err := newEngine(rc)
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*gpuEngine[T])
	index := e.index
	e.index = func(dev *gpusim.Device, rows [][]T) (arrival, error) {
		in, err := index(dev, rows)
		return checkedArrival{in, t, launches}, err
	}
	count := func(recv [][]T) (work, error) {
		w, err := e.count(recv)
		if e.table.Len() > e.table.Ceiling() {
			t.Errorf("count left %d keys in a table whose ceiling is %d", e.table.Len(), e.table.Ceiling())
		}
		return w, err
	}
	return count, func() *kcount.AtomicTable { return e.table }
}

// rowsOf builds the mode's received rows from a test arrival, read by read.
func rowsOf[T unit](a countLoopArrival, row func(read []byte, row []T) []T) [][]T {
	recv := make([][]T, len(a))
	for i, part := range a {
		if part != nil {
			recv[i] = []T{}
		}
		for _, r := range part {
			recv[i] = row(r, recv[i])
		}
	}
	return recv
}

// sampleFirst reorders a k-mer row, in place, as ParseKmers ships one: the
// sample slice's k-mers first, each side in its order.
func sampleFirst(row []uint64) []uint64 {
	slices.SortStableFunc(row, func(a, b uint64) int { return b2i(!sampleKeys.has(a)) - b2i(!sampleKeys.has(b)) })
	return row
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kmerRowOf and supermerRowOf append a read's k-mers, or its one supermer
// image, to a received row.
func kmerRowOf(cfg Config) func(r []byte, row []uint64) []uint64 {
	return func(r []byte, row []uint64) []uint64 {
		kmer.ForEach(cfg.Enc, r, cfg.K, func(w dna.Kmer, _ int) { row = append(row, uint64(w)) })
		return row
	}
}

func supermerRowOf(t testing.TB, cfg Config) func(r []byte, row []byte) []byte {
	wire := kernels.SupermerWire{K: cfg.K, Window: cfg.Window}
	return func(r []byte, row []byte) []byte {
		codes, err := cfg.Enc.EncodeSeq(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return wire.Encode(row, &minimizer.Supermer{Seq: dna.PackCodes(codes), NKmers: len(r) - cfg.K + 1})
	}
}

// TestCountLaunchLoop drives gpuEngine.count directly over adversarial
// arrivals in both modes and checks the count rule's properties: the
// spectrum equals the serial oracle's; every launch has a budget of at least
// one k-mer and at most the free slots but one (checkedArrival), and every
// count leaves the table under its load ceiling; an arrival that fits the
// room or holds at most minLaunch k-mers is exactly one launch, and an empty
// one none; an arrival beyond that is a pass over the sample slice and one
// over the rest, the sample one launch in k-mer mode; and the final table is
// no larger than NewAtomicTable picks for twice its keys plus minLaunch, or
// for the k-mers a k-mer sample pass held, when that is more (a sample of
// one hot key).
func TestCountLaunchLoop(t *testing.T) {
	cfg := Default(smallGPULayout(1), SupermerMode)
	k, window, enc := cfg.K, cfg.Window, cfg.Enc
	rng := rand.New(rand.NewSource(11))
	read := func(nk int) []byte {
		b := make([]byte, nk+k-1)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return b
	}
	// numbered(i) is a k-mer that differs for every i < 4^10.
	numbered := func(i int) []byte {
		b := make([]byte, k)
		for j := range b {
			b[j] = "ACGT"[i&3]
			i >>= 2
		}
		return b
	}
	repeat := func(n int, gen func(i int) []byte) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	const n = 5 * minLaunch
	distinct := repeat(n, numbered)
	long := repeat(n/window, func(int) []byte { return read(window) })
	mixed := repeat(n/8, func(i int) []byte { return read(1 + i%window) })
	small := repeat(minLaunch/4/window, func(int) []byte { return read(window) })
	cases := map[string][]countLoopArrival{
		"all distinct":      {{distinct}},
		"one key repeated":  {{repeat(n, func(int) []byte { return distinct[0] })}},
		"duplicates sorted": {{repeat(n, func(i int) []byte { return distinct[i/8] })}},
		"nk = Window":       {{long}},
		"nil and empty parts, boundaries inside windows": {{nil, {}, mixed[:1], mixed[1:7_001], {}, mixed[7_001:], nil}},
		"empty":                        {{}, {nil, {}}},
		"second arrival fits the room": {{long}, {small}},
		"second arrival outgrows it":   {{mixed}, {long, distinct}},
	}
	for name, arrivals := range cases {
		for _, mode := range []Mode{KmerMode, SupermerMode} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				cfg := cfg
				cfg.Mode = mode
				rc := rankCtx{cfg: cfg, seat: identitySeat(0, 1)}
				var launches [3]int
				var count func(a countLoopArrival) (work, error)
				var table func() *kcount.AtomicTable
				if mode == KmerMode {
					var c func([][]uint64) (work, error)
					c, table = countLoopEngine(t, rc, newKmerEngine, &launches)
					count = func(a countLoopArrival) (work, error) {
						rows := rowsOf(a, kmerRowOf(cfg))
						for _, row := range rows {
							sampleFirst(row) // as ParseKmers ships them
						}
						return c(rows)
					}
				} else {
					var c func([][]byte) (work, error)
					c, table = countLoopEngine(t, rc, newSupermerEngine, &launches)
					count = func(a countLoopArrival) (work, error) { return c(rowsOf(a, supermerRowOf(t, cfg))) }
				}
				var all [][]byte
				sampled := 0 // most k-mers a k-mer sample pass held
				for i, a := range arrivals {
					var kmers, inSample int
					for _, part := range a {
						for _, r := range part {
							kmers += len(r) - k + 1
							kmer.ForEach(enc, r, k, func(w dna.Kmer, _ int) { inSample += b2i(sampleKeys.has(uint64(w))) })
						}
						all = append(all, part...)
					}
					fits := kmers <= table().Room()
					before := launches
					if _, err := count(a); err != nil {
						t.Fatal(err)
					}
					made := [3]int{launches[0] - before[0], launches[1] - before[1], launches[2] - before[2]}
					switch {
					case kmers == 0 && made != [3]int{}:
						t.Errorf("arrival %d: %v launches for no k-mers, want none", i, made)
					case kmers > 0 && (fits || kmers <= minLaunch) && made != [3]int{1, 0, 0}:
						t.Errorf("arrival %d: %v launches for %d k-mers (fits the room: %v), want 1 over all keys", i, made, kmers, fits)
					case kmers > minLaunch && !fits:
						// The sample is one launch in k-mer mode — none when no
						// k-mer lies in it — and in supermer mode walks every image.
						want := made[sampleKeys] >= 1
						if mode == KmerMode {
							want = made[sampleKeys] == b2i(inSample > 0)
						}
						if !want || made[allKeys] != 0 || made[otherKeys] == 0 {
							t.Errorf("arrival %d: %v launches for %d k-mers, %d in the sample, want a pass over each slice", i, made, kmers, inSample)
						}
					}
					if mode == KmerMode && !fits && kmers > minLaunch {
						sampled = max(sampled, inSample)
					}
				}
				got, oracle := table(), kcount.SerialCount(enc, all, k)
				if diff := got.Snapshot().EqualToOracle(oracle); diff != "" {
					t.Fatal(diff)
				}
				checkEscaped(t, got, oracle)
				if most := kcount.NewAtomicTable(max(2*got.Len(), sampled)+minLaunch, tableLoad, kcount.Linear).Cap(); got.Cap() > most {
					t.Errorf("%d slots for %d keys, want at most %d", got.Cap(), got.Len(), most)
				}
				t.Logf("%v launches, %d keys in %d slots", launches, got.Len(), got.Cap())
			})
		}
	}
}

// TestKmerRowsShipSampleFirst: every row the GPU k-mer engine parses is the
// k-mers sampleKeys has, then the rest — kernels.ParseKmers' slice and the
// count's agree, or the binary search that finds a part's sample would cut
// it anywhere.
func TestKmerRowsShipSampleFirst(t *testing.T) {
	cfg := Default(smallGPULayout(2), KmerMode)
	eng, err := newKmerEngine(rankCtx{cfg: cfg, seat: identitySeat(0, cfg.Layout.Ranks())})
	if err != nil {
		t.Fatal(err)
	}
	var buf dna.SeqBuffer
	for _, r := range testReads(t, 20_000, 4) {
		buf.AppendRead(r.Seq)
	}
	rows, _, err := eng.parse(0, buf.Data())
	if err != nil {
		t.Fatal(err)
	}
	for d, row := range rows {
		row = row[kernels.WordFrameHeader:]
		cut := 0
		for cut < len(row) && sampleKeys.has(row[cut]) {
			cut++
		}
		if cut == 0 || cut == len(row) {
			t.Errorf("row %d: %d of %d k-mers in the sample, want some and not all", d, cut, len(row))
		}
		for _, key := range row[cut:] {
			if sampleKeys.has(key) {
				t.Fatalf("row %d: sample k-mer %#x behind the first of the rest, at %d", d, key, cut)
			}
		}
	}
}

// stalledArrival holds k-mers its launches never take.
type stalledArrival struct{ launches *int }

func (stalledArrival) Kmers() int                 { return 3 * minLaunch }
func (stalledArrival) sampled() int               { return minLaunch }
func (s stalledArrival) span(keySlice) (int, int) { return 0, s.Kmers() }
func (s stalledArrival) Count(_ *kcount.AtomicTable, _ keySlice, from, _ int) (int, int, gpusim.KernelStats, error) {
	*s.launches++
	return from, 0, gpusim.KernelStats{}, nil
}

// TestCountLoopFailsWithoutProgress: a launch that takes nothing while
// k-mers are left ends the count with an error after that one launch,
// instead of spinning on launch overheads.
func TestCountLoopFailsWithoutProgress(t *testing.T) {
	eng, err := newKmerEngine(rankCtx{cfg: Default(smallGPULayout(1), KmerMode), seat: identitySeat(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var launches int
	e := eng.(*gpuEngine[uint64])
	e.index = func(*gpusim.Device, [][]uint64) (arrival, error) { return stalledArrival{&launches}, nil }
	if _, err := e.count(nil); err == nil || launches != 1 {
		t.Fatalf("%d launches, err %v; want an error after one", launches, err)
	}
}

// TestSupermerRunAllocatesNoMoreThanKmerRun is an allocation budget in
// bytes: supermer mode exists to make the GPU pipeline smaller, so one
// supermer run may not allocate more than the k-mer-mode run over the same
// reads. With Window slots reserved per received supermer it allocated
// about twice as much.
func TestSupermerRunAllocatesNoMoreThanKmerRun(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	reads := testReads(t, 60_000, 8)
	allocated := func(mode Mode) uint64 {
		cfg := Default(smallGPULayout(1), mode)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg, reads); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(SupermerMode) // warm the pools both modes share
	supermer, kmer := allocated(SupermerMode), allocated(KmerMode)
	t.Logf("supermer run %d B, k-mer run %d B (%.2fx)", supermer, kmer, float64(supermer)/float64(kmer))
	if supermer > kmer {
		t.Fatalf("supermer run allocated %d B, k-mer run %d B", supermer, kmer)
	}
}

// TestSendRowsAreNotCopiedIntoFrames is an allocation budget in units of the
// run's payload: parse packs each send row behind its frame header's room and
// the exchange seals and ships it where it lies, so nothing between parse and
// wire may allocate the payload a second time. A one-round k-mer run
// allocates 2.04 (cpu) and 2.79–3.01 (gpu, -cpu 1 to 8) times its payload —
// rows, tables, bases; with a frame arena the rows were copied into it was a
// payload more, and while the GPU table climbed a power-of-two ladder the GPU
// run took 4.26–4.85. The GPU kernels' staging is not in the figure: it comes
// from the kernels package's pool, which the warm-up run has filled — held
// once per rank it added 1.55 payloads, which the GPU budget also refuses.
func TestSendRowsAreNotCopiedIntoFrames(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	reads := testReads(t, 60_000, 8)
	for _, c := range []struct {
		name     string
		layout   cluster.Layout
		payloads float64
	}{
		{"cpu", smallCPULayout(), 2.80},
		{"gpu", smallGPULayout(1), 3.40},
	} {
		cfg := Default(c.layout, KmerMode)
		allocated := func() (uint64, *Result) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc, res
		}
		allocated() // warm the pools runs share
		got, res := allocated()
		if res.Rounds != 1 {
			t.Fatalf("%s: %d rounds, want one", c.name, res.Rounds)
		}
		inPayloads := float64(got) / float64(res.PayloadBytes)
		t.Logf("%s: allocated %d B = %.2f x the %d B payload", c.name, got, inPayloads, res.PayloadBytes)
		if inPayloads > c.payloads {
			t.Errorf("%s run allocated %.2f x its payload, budget %.2f", c.name, inPayloads, c.payloads)
		}
	}
}

// FuzzGPUCount drives gpuEngine.count in either mode over one or two
// arrivals of fuzz-shaped keys, into a fresh table or one seeded from a
// checkpoint slice: keys anywhere in key space, all in the sample slice or
// none in it, each repeated 1 to 50 times — or 250 to 505, so that a few hot
// keys carry their counts out of their lanes — in parts shipped sample first
// or scrambled (a shrunk seat's folded rows, a spill record). Whatever the
// estimate the sample gives, the spectrum must be the serial oracle's, its
// counts of 128 or more the table's escaped keys, no launch may have a zero
// budget or fill the table (checkedArrival), and every count must leave the
// table under its load ceiling. Supermer arrivals carry one k-mer an image,
// so the key mix is the fuzzer's.
func FuzzGPUCount(f *testing.F) {
	for _, mode := range []uint8{0, 1} {
		for mix := uint8(0); mix < 3; mix++ {
			f.Add(int64(mix), uint32(3*minLaunch-1), mix, uint8(3), mode)
			f.Add(int64(mix)+7, uint32(2*minLaunch+999), mix, uint8(49), mode|2|4)
			f.Add(int64(mix)+13, uint32(minLaunch+1), mix, uint8(0), mode|8)
		}
		f.Add(int64(5), uint32(minLaunch/3), uint8(0), uint8(1), mode|2)
		f.Add(int64(6), uint32(0), uint8(1), uint8(0), mode|4)
		// Hot keys: a few keys, each repeated past 255.
		f.Add(int64(8), uint32(3_000), uint8(0), uint8(30), mode|16)
		f.Add(int64(9), uint32(2*minLaunch+77), uint8(1), uint8(0), mode|2|4|16)
		f.Add(int64(10), uint32(minLaunch+1), uint8(2), uint8(255), mode|8|16)
	}
	cfg := Default(smallGPULayout(1), KmerMode)
	k, enc := cfg.K, cfg.Enc
	f.Fuzz(func(t *testing.T, seed int64, n uint32, mix, repeat, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := cfg
		if flags&1 != 0 {
			cfg.Mode = SupermerMode
		}
		arrivals, seeded, scrambled := 1+int(flags>>1&1), flags&4 != 0, flags&8 != 0
		kmers, rep := int(n%(3*minLaunch)), 1+int(repeat%50)
		if flags&16 != 0 {
			rep = 250 + int(repeat)
		}
		key := func() uint64 {
			for {
				key := rng.Uint64() & uint64(dna.KmerMask(k))
				if in := sampleKeys.has(key); mix%3 == 0 || in == (mix%3 == 1) {
					return key
				}
			}
		}
		var reads [][]byte // one read a k-mer occurrence
		seat := identitySeat(0, 1)
		want := map[dna.Kmer]uint32{}
		if seeded {
			db := &kcount.Database{K: k}
			for i := 0; i < 1+kmers/(4*rep); i++ {
				db.Entries = append(db.Entries, kcount.KV{Key: key(), Count: uint32(1 + rng.Intn(9))})
			}
			slices.SortFunc(db.Entries, func(a, b kcount.KV) int { return cmp.Compare(a.Key, b.Key) })
			db.Entries = slices.CompactFunc(db.Entries, func(a, b kcount.KV) bool { return a.Key == b.Key })
			for _, e := range db.Entries {
				want[dna.Kmer(e.Key)] += e.Count
			}
			seat.seed = []*kcount.Database{db}
		}
		var launches [3]int
		rc := rankCtx{cfg: cfg, seat: seat}
		var count func([][]uint64) (work, error)
		var table func() *kcount.AtomicTable
		if cfg.Mode == KmerMode {
			count, table = countLoopEngine(t, rc, newKmerEngine, &launches)
		} else {
			var superCount func([][]byte) (work, error)
			superCount, table = countLoopEngine(t, rc, newSupermerEngine, &launches)
			image := supermerRowOf(t, cfg)
			count = func(parts [][]uint64) (work, error) {
				rows := make([][]byte, len(parts))
				for i, part := range parts {
					for _, key := range part {
						rows[i] = image([]byte(dna.Kmer(key).String(enc, k)), rows[i])
					}
				}
				return superCount(rows)
			}
		}
		for a := 0; a < arrivals; a++ {
			var all []uint64
			for len(all) < kmers {
				key := key()
				for r := 0; r < rep && len(all) < kmers; r++ {
					all = append(all, key)
				}
			}
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			for _, key := range all {
				reads = append(reads, []byte(dna.Kmer(key).String(enc, k)))
			}
			// Three parts and a nil one, cut at random.
			cut := []int{0, rng.Intn(len(all) + 1), rng.Intn(len(all) + 1), len(all)}
			slices.Sort(cut)
			parts := [][]uint64{all[cut[0]:cut[1]], nil, all[cut[1]:cut[2]], all[cut[2]:cut[3]]}
			if !scrambled {
				for _, part := range parts {
					sampleFirst(part)
				}
			}
			if _, err := count(parts); err != nil {
				t.Fatal(err)
			}
		}
		for key, c := range kcount.SerialCount(enc, reads, k) {
			want[key] += c
		}
		if diff := table().Snapshot().EqualToOracle(want); diff != "" {
			t.Fatal(diff)
		}
		checkEscaped(t, table(), want)
	})
}

// checkEscaped checks that the table's escaped keys are the oracle's counts
// of 128 or more: those, and only those, outgrew a one-byte lane.
func checkEscaped(t *testing.T, table *kcount.AtomicTable, oracle map[dna.Kmer]uint32) {
	t.Helper()
	want := 0
	for _, c := range oracle {
		want += b2i(c >= 128)
	}
	if table.Escaped() != want {
		t.Errorf("%d keys escaped their lanes, the oracle has %d counts of 128 or more", table.Escaped(), want)
	}
}
