package pipeline

import (
	"math/rand"
	"runtime"
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

// TestGPUTableReservation pins the table-growth rule through the per-rank
// gauges. The GPU engine sizes a rank's table by the keys it holds: never
// past its load ceiling, never above the slots kcount.NewAtomicTable picks
// for twice the rank's distinct k-mers plus minLaunch, nor above what it
// picks for the k-mers the rank received in total (what reserving a whole
// arrival at once used to take). Under spill the same bounds hold for the
// largest pass-2 bin table. An arrival under minLaunch k-mers stays one
// kernel launch, so a rank launches once per round (or per pass-2 spill
// record: every rank × bin of this fixture holds one), and the one-round
// arrival, cut into launches, stays within the budget of 12. And all a
// rank's count allocates for the table is the table it ends with: it grows in
// place, so the slots it had on the way (2¹⁷, then 2¹⁸) are among the 2¹⁹ it
// keeps — allocated anew at every rehash they came to 1.75 times the final
// table.
func TestGPUTableReservation(t *testing.T) {
	const bins = 4
	cases := map[string]struct {
		genome   int
		set      func(*Config)
		launches func(res *Result) (lo, hi int)
	}{
		"one round": {400_000, func(*Config) {}, func(*Result) (int, int) { return 2, 12 }},
		"rounds":    {20_000, func(c *Config) { c.RoundBases = 4_000 }, func(res *Result) (int, int) { return res.Rounds, res.Rounds }},
		"kmer mode": {20_000, func(c *Config) { c.Mode = KmerMode }, func(*Result) (int, int) { return 1, 1 }},
		"spill bins": {20_000, func(c *Config) { c.Spill = SpillConfig{Dir: t.TempDir(), Bins: bins} },
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
			sized := func(keys int) float64 {
				return float64(kcount.NewAtomicTable(keys, tableLoad, kcount.Linear).Cap())
			}
			lo, hi := tc.launches(res)
			for rank, kmers := range res.PerRankKmers {
				gauge := func(name string) float64 {
					return rec.Registry().Gauge(name, "", obs.L("rank", strconv.Itoa(rank))).Value()
				}
				slots, load := gauge("pipeline_table_slots"), gauge("pipeline_table_load_factor")
				if load <= 0 || load > tableLoad {
					t.Errorf("rank %d: load factor %.3f outside (0, %.2f]", rank, load, tableLoad)
				}
				// Under spill load·slots is no one table's key count; the bound
				// by k-mers received still holds for every bin table.
				if most := sized(2*int(load*slots) + minLaunch); cfg.Spill.Dir == "" && slots > most {
					t.Errorf("rank %d: %v slots for %.0f keys, want at most %v", rank, slots, load*slots, most)
				}
				if most := sized(int(kmers)); slots > most {
					t.Errorf("rank %d: %v slots for %d k-mers received, want at most %v", rank, slots, kmers, most)
				}
				if n := int(gauge("pipeline_count_launches")); n < lo || n > hi {
					t.Errorf("rank %d: %d count launches for %d k-mers, want %d to %d", rank, n, kmers, lo, hi)
				}
				if grows, moved := gauge("pipeline_table_grows"), gauge("pipeline_table_rehashed_keys"); moved > grows*load*slots {
					t.Errorf("rank %d: %v keys rehashed by %v grows of a table that ends with %.0f", rank, moved, grows, load*slots)
				}
			}
		})
	}
	t.Run("count allocation", testCountAllocation)
}

// testCountAllocation is TestGPUTableReservation's allocation budget: one
// rank's count of a k-mer arrival that takes its table up the whole ladder
// may allocate 12 bytes for every slot of the final table and a tenth more
// (the arrival's index, the launches, the rehash bitmaps).
func testCountAllocation(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	cfg := Default(smallGPULayout(1), KmerMode)
	var row []uint64
	for _, r := range testReads(t, 100_000, 8) {
		kmer.ForEach(cfg.Enc, r.Seq, cfg.K, func(w dna.Kmer, _ int) { row = append(row, uint64(w)) })
	}
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
	budget := uint64(12 * table.Cap() * 11 / 10)
	t.Logf("allocated %d B counting %d k-mers into %d slots (%d grows), budget %d", got, len(row), table.Cap(), table.Grows(), budget)
	if table.Grows() < 3 {
		t.Fatalf("%d grows, want a ladder of 3 or more", table.Grows())
	}
	if got > budget {
		t.Errorf("allocated %d B, budget %d: 12 B x the final %d slots x 1.1", got, budget, table.Cap())
	}
}

// countLoopArrival is one test arrival of the count loop: reads of
// nk+k−1 bases (1 ≤ nk ≤ Window, so each is one supermer image or nk packed
// k-mers), cut into the parts a count call receives. A nil part is legal.
type countLoopArrival [][][]byte

// checkedArrival asserts, after every launch, what the loop promises of it:
// the budget was honoured and the table is under its load ceiling (P1).
type checkedArrival struct {
	arrival
	t        *testing.T
	launches *int
}

func (c checkedArrival) Count(table *kcount.AtomicTable, from, budget int) (int, int, gpusim.KernelStats, error) {
	room := table.Room()
	next, kmers, st, err := c.arrival.Count(table, from, budget)
	*c.launches++
	if kmers > budget || budget > room {
		c.t.Errorf("launch %d took %d k-mers of a budget of %d with room for %d", *c.launches, kmers, budget, room)
	}
	if table.Len() > table.Ceiling() {
		c.t.Errorf("launch %d left %d keys in a table whose ceiling is %d", *c.launches, table.Len(), table.Ceiling())
	}
	return next, kmers, st, err
}

// countLoopEngine builds the mode's GPU engine with every arrival it indexes
// wrapped in a checkedArrival, and returns a count over test arrivals, whose
// rows the mode's row function builds read by read, and the engine's live
// table.
func countLoopEngine[T unit](t *testing.T, rc rankCtx, newEngine func(rankCtx) (engine[T], error), launches *int,
	row func(read []byte, row []T) []T) (func(countLoopArrival) error, func() *kcount.AtomicTable) {
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
	count := func(a countLoopArrival) error {
		recv := make([][]T, len(a))
		for i, part := range a {
			if part != nil {
				recv[i] = []T{}
			}
			for _, r := range part {
				recv[i] = row(r, recv[i])
			}
		}
		_, err := e.count(recv)
		return err
	}
	return count, func() *kcount.AtomicTable { return e.table }
}

// TestCountLaunchLoop drives gpuEngine.count directly over adversarial
// arrivals in both modes and checks the loop's four properties: the
// spectrum equals the serial oracle's; the load ceiling holds after every
// launch (P1); the final table is no larger than NewAtomicTable picks for
// twice its keys plus minLaunch, nor than the table the whole-arrival
// reservation it replaced would have ended with (P2); and an arrival that
// fits the room or is smaller than minLaunch — an empty one included — is
// exactly one launch (P3).
func TestCountLaunchLoop(t *testing.T) {
	cfg := Default(smallGPULayout(1), SupermerMode)
	k, window, enc := cfg.K, cfg.Window, cfg.Enc
	wire := kernels.SupermerWire{K: k, Window: window}
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
				var launches int
				var count func(a countLoopArrival) error
				var table func() *kcount.AtomicTable
				if mode == KmerMode {
					count, table = countLoopEngine(t, rc, newKmerEngine, &launches, func(r []byte, row []uint64) []uint64 {
						kmer.ForEach(enc, r, k, func(w dna.Kmer, _ int) { row = append(row, uint64(w)) })
						return row
					})
				} else {
					count, table = countLoopEngine(t, rc, newSupermerEngine, &launches, func(r []byte, row []byte) []byte {
						codes, err := enc.EncodeSeq(nil, r)
						if err != nil {
							t.Fatal(err)
						}
						return wire.Encode(row, &minimizer.Supermer{Seq: dna.PackCodes(codes), NKmers: len(r) - k + 1})
					})
				}
				// old follows the rule the loop replaced: reserve the whole
				// arrival's k-mers, then insert them.
				old := kcount.NewAtomicTable(1, tableLoad, kcount.Linear)
				var all [][]byte
				for i, a := range arrivals {
					var kmers int
					for _, part := range a {
						for _, r := range part {
							kmers += len(r) - k + 1
						}
						all = append(all, part...)
					}
					fits := kmers <= table().Room()
					before := launches
					if err := count(a); err != nil {
						t.Fatal(err)
					}
					if made := launches - before; (fits || kmers < minLaunch) && made != 1 {
						t.Errorf("arrival %d: %d launches for %d k-mers (fits the room: %v), want 1", i, made, kmers, fits)
					}
					old.Reserve(kmers)
					for _, part := range a {
						for _, r := range part {
							kmer.ForEach(enc, r, k, func(w dna.Kmer, _ int) { old.Inc(uint64(w)) })
						}
					}
				}
				got := table()
				if diff := got.Snapshot().EqualToOracle(kcount.SerialCount(enc, all, k)); diff != "" {
					t.Fatal(diff)
				}
				if most := kcount.NewAtomicTable(2*got.Len()+minLaunch, tableLoad, kcount.Linear).Cap(); got.Cap() > most {
					t.Errorf("%d slots for %d keys, want at most %d", got.Cap(), got.Len(), most)
				}
				if got.Cap() > old.Cap() {
					t.Errorf("%d slots, reserving whole arrivals took %d", got.Cap(), old.Cap())
				}
				t.Logf("%d launches, %d keys in %d slots (whole-arrival reservation: %d)", launches, got.Len(), got.Cap(), old.Cap())
			})
		}
	}
}

// stalledArrival holds k-mers its launches never take.
type stalledArrival struct{ launches *int }

func (stalledArrival) Kmers() int { return 3 * minLaunch }
func (s stalledArrival) Count(_ *kcount.AtomicTable, from, _ int) (int, int, gpusim.KernelStats, error) {
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
// allocates 2.69 (cpu) and 4.67–4.85 (gpu, -cpu 1 to 8) times its payload —
// rows, tables, bases; with a frame arena the rows were copied into it was a
// payload more. The GPU kernels' staging is not in the figure: it comes from
// the kernels package's pool, which the warm-up run has filled — held once
// per rank it made the run 6.40 payloads, which the GPU budget also refuses.
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
		{"gpu", smallGPULayout(1), 5.40},
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
