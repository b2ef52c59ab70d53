package pipeline

import (
	"runtime"
	"strconv"
	"testing"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kmer"
	"dedukt/internal/obs"
)

// lr8Reads generates reads of the benchmark's lr8 shape (bench/dataset.go):
// 8x of 800-base reads, 0.2 % errors and 0.2 % N, over a genome a fifth
// repeats — a quarter of its megabase, so a 12-rank run stays a test.
func lr8Reads(t testing.TB) []fastq.Record {
	t.Helper()
	g, err := genome.Generate("lr8", genome.Config{
		Length: 250_000, RepeatFraction: 0.2,
		RepeatMinLen: 100, RepeatMaxLen: 400, GC: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := genome.SimulateReads(g, 8, genome.ReadProfile{
		Model: genome.ShortReads, MeanLen: 800, ErrRate: 0.002, AmbigRate: 0.002, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// lr8Layout is the benchmark's 12-rank CPU world: two nodes of six.
func lr8Layout() cluster.Layout {
	l := cluster.SummitCPU(2)
	l.RanksPerNode = 6
	l.Net.RanksPerNode = 6
	return l
}

// ladderOf returns a table that came to hold table's keys by Add's doubling
// alone.
func ladderOf(table *kcount.Table) *kcount.Table {
	ladder := kcount.NewTable(1, kcount.Linear)
	table.ForEach(func(key uint64, c uint32) { ladder.Add(key, c) })
	return ladder
}

// TestCPUProvisioning pins what the CPU engine's count promises of the table
// it sizes from a slice of each arrival: the spectrum is the serial oracle's;
// every rank ends with exactly the capacity the doubling ladder ends with —
// the estimate never buys a doubling the keys do not need, in one round or
// over fourteen, where most of an arrival is already held; and a one-round
// rank's rehashes moved at most a quarter of the keys it holds, where the
// ladder moves more than all of them. A table that fills over fourteen rounds
// has to grow as it goes, and moves fewer keys than the ladder at least.
func TestCPUProvisioning(t *testing.T) {
	reads := lr8Reads(t)
	for name, set := range map[string]func(*Config){
		"one round": func(*Config) {},
		"14 rounds": func(c *Config) { c.MemBudgetBytes = roundBudget(*c, 12_000) },
		"supermers": func(c *Config) { c.Mode = SupermerMode },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := Default(lr8Layout(), KmerMode)
			cfg.KeepTables = true
			set(&cfg)
			rec := obs.NewRecorder(cfg.Layout.Ranks())
			cfg.Obs = rec
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, cfg, reads, res)
			if name == "14 rounds" && res.Rounds != 14 {
				t.Fatalf("%d rounds, want 14", res.Rounds)
			}
			for rank, table := range res.Tables {
				ladder := ladderOf(table)
				if table.Cap() != ladder.Cap() {
					t.Errorf("rank %d: %d slots for %d keys, the ladder ends with %d", rank, table.Cap(), table.Len(), ladder.Cap())
				}
				most := table.Len() / 4
				if res.Rounds > 1 {
					most = ladder.Rehashed() - 1
				}
				if table.Rehashed() > most {
					t.Errorf("rank %d: %d keys rehashed in %d grows of a table that ends with %d (the ladder: %d), want at most %d",
						rank, table.Rehashed(), table.Grows(), table.Len(), ladder.Rehashed(), most)
				}
				// Supermers go to the rank of their minimizer, and the keys of
				// the ranks that get few scatter further around the estimate.
				reserved := int(rec.Registry().Gauge("pipeline_table_reserved_keys", "", obs.L("rank", strconv.Itoa(rank))).Value())
				if lo, hi := table.Len()*9/10, table.Len()*11/10; reserved < lo || reserved > hi {
					t.Errorf("rank %d: room reserved for %d keys, holds %d", rank, reserved, table.Len())
				}
			}
		})
	}
	t.Run("engine", testCountProvisioned)
	t.Run("count allocation", testCPUCountAllocation)
}

// kmerRow returns the k-mers of the reads as one received k-mer-mode row.
func kmerRow(cfg Config, reads []fastq.Record) []uint64 {
	var row []uint64
	for _, r := range reads {
		kmer.ForEach(cfg.Enc, r.Seq, cfg.K, func(w dna.Kmer, _ int) { row = append(row, uint64(w)) })
	}
	return row
}

// supermerRow returns the supermers of the reads as one received
// supermer-mode row.
func supermerRow(t *testing.T, cfg Config, reads []fastq.Record) []byte {
	var buf dna.SeqBuffer
	for _, r := range reads {
		buf.AppendRead(r.Seq)
	}
	rows, _, err := cpuBuildSupermers(cfg, nil, 1, buf.Data(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows[0][kernels.ByteFrameHeader:]
}

// testCountProvisioned drives one CPU engine's count directly, over the
// arrivals a run does not reach on purpose: a table seeded from a checkpoint,
// the singleton filter in front of it, supermer rows, an arrival of a few
// k-mers, and one none of whose keys falls in the sample slice. Each must
// leave the serial oracle's spectrum in a table no larger than the ladder's,
// and have metered every k-mer once.
func testCountProvisioned(t *testing.T) {
	reads := testReads(t, 40_000, 6)
	half := len(reads) / 2
	seqs := func(reads []fastq.Record) [][]byte {
		out := make([][]byte, len(reads))
		for i, r := range reads {
			out[i] = r.Seq
		}
		return out
	}
	cfg := Default(smallCPULayout(), KmerMode)
	oracle := kcount.SerialCount(cfg.Enc, seqs(reads), cfg.K)

	// counted runs arrivals through a fresh engine of cfg and returns its
	// table and the metered work.
	counted := func(t *testing.T, cfg Config, seat *rankSeat, arrivals ...[]uint64) (*kcount.Table, work) {
		eng, err := newKmerEngine(rankCtx{cfg: cfg, seat: seat})
		if err != nil {
			t.Fatal(err)
		}
		var total work
		for _, a := range arrivals {
			w, err := eng.count([][]uint64{a[:len(a)/3], nil, a[len(a)/3:]})
			if err != nil {
				t.Fatal(err)
			}
			total.add(w)
		}
		return eng.(*cpuEngine[uint64]).table, total
	}
	check := func(t *testing.T, table *kcount.Table, w work, oracle map[dna.Kmer]uint32, kmers int) {
		t.Helper()
		if diff := table.EqualToOracle(oracle); diff != "" {
			t.Fatal(diff)
		}
		if want := ladderOf(table).Cap(); table.Cap() != want {
			t.Errorf("%d slots for %d keys, the ladder ends with %d", table.Cap(), table.Len(), want)
		}
		if int(w.meter.Items) != kmers {
			t.Errorf("metered %d items for %d k-mers", w.meter.Items, kmers)
		}
	}

	t.Run("checkpoint seeded", func(t *testing.T) {
		seeded := kcount.NewTable(1, kcount.Linear)
		first := kmerRow(cfg, reads[:half])
		for _, key := range first {
			seeded.Inc(key)
		}
		seat := &rankSeat{nOrig: 1}
		seat.seed = []*kcount.Database{kcount.FromTable(seeded, cfg.K, 0)}
		rest := kmerRow(cfg, reads[half:])
		table, w := counted(t, cfg, seat, rest)
		check(t, table, w, oracle, len(rest))
		if w.reserved == 0 {
			t.Error("the arrival outgrew the seeded table without a Reserve")
		}
	})
	t.Run("two arrivals", func(t *testing.T) {
		a, b := kmerRow(cfg, reads[:half]), kmerRow(cfg, reads[half:])
		table, w := counted(t, cfg, &rankSeat{nOrig: 1}, a, b)
		check(t, table, w, oracle, len(a)+len(b))
	})
	t.Run("tiny arrival", func(t *testing.T) {
		row := kmerRow(cfg, reads[:1])[:9]
		table, w := counted(t, cfg, &rankSeat{nOrig: 1}, row)
		check(t, table, w, kcount.SerialCount(cfg.Enc, [][]byte{reads[0].Seq[:9+cfg.K-1]}, cfg.K), len(row))
	})
	t.Run("no key in the slice", func(t *testing.T) {
		var row []uint64
		want := map[dna.Kmer]uint32{}
		for _, key := range kmerRow(cfg, reads) {
			if !sampleKeys.has(key) {
				row = append(row, key)
				want[dna.Kmer(key)]++
			}
		}
		table, w := counted(t, cfg, &rankSeat{nOrig: 1}, row)
		check(t, table, w, want, len(row))
		if w.reserved != 0 {
			t.Errorf("room reserved for %d keys from an empty sample", w.reserved)
		}
	})
	t.Run("supermers", func(t *testing.T) {
		cfg := Default(smallCPULayout(), SupermerMode)
		row := supermerRow(t, cfg, reads)
		// The same rows counted in one pass, into a table that has the room,
		// meter the same work but for the probes, which follow the layout.
		var tables [2]*kcount.Table
		var works [2]work
		for i, reserve := range []int{0, len(oracle)} {
			eng, err := newSupermerEngine(rankCtx{cfg: cfg, seat: &rankSeat{nOrig: 1}})
			if err != nil {
				t.Fatal(err)
			}
			tables[i] = eng.(*cpuEngine[byte]).table
			tables[i].Reserve(reserve * cfg.Window)
			if works[i], err = eng.count([][]byte{row[:0], row}); err != nil {
				t.Fatal(err)
			}
			tables[i] = eng.(*cpuEngine[byte]).table
		}
		check(t, tables[0], works[0], oracle, len(kmerRow(cfg, reads)))
		if works[0].reserved == 0 || works[1].reserved != 0 {
			t.Fatalf("reserved %d and %d keys, want the first count sampled and the second in one pass", works[0].reserved, works[1].reserved)
		}
		unprobed := func(i int) (ops, bytes uint64) {
			m, probes := works[i].meter, tables[i].Probes
			return m.Ops - probes*kernels.OpsProbe, m.Bytes - probes*8
		}
		ops, bytes := unprobed(0)
		if wantOps, wantBytes := unprobed(1); ops != wantOps || bytes != wantBytes {
			t.Errorf("two passes metered %d ops and %d bytes beside the probes, one pass %d and %d", ops, bytes, wantOps, wantBytes)
		}
	})
}

// testCPUCountAllocation is the CPU twin of TestGPUTableReservation's
// allocation budget: one rank's count of an arrival that takes its table from
// 8 slots to 2¹⁸ may allocate 9 bytes (a key and a one-byte count lane) for
// every slot of the table it ends with and 15 % more — the sample's own small
// ladder. Doubling all the way allocated twice the final table.
func testCPUCountAllocation(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc counts are inflated by the race detector")
	}
	cfg := Default(smallCPULayout(), KmerMode)
	row := kmerRow(cfg, testReads(t, 100_000, 8))
	eng, err := newKmerEngine(rankCtx{cfg: cfg, seat: &rankSeat{nOrig: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.count([][]uint64{row}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	table := eng.(*cpuEngine[uint64]).table
	got, budget := after.TotalAlloc-before.TotalAlloc, uint64(9*table.Cap()*115/100)
	t.Logf("allocated %d B counting %d k-mers into %d slots (%d grows, %d keys rehashed), budget %d", got, len(row), table.Cap(), table.Grows(), table.Rehashed(), budget)
	if table.Cap() < 1<<18 {
		t.Fatalf("%d slots, want an arrival that needs 2^18", table.Cap())
	}
	if got > budget {
		t.Errorf("allocated %d B, budget %d: 9 B x the final %d slots x 1.15", got, budget, table.Cap())
	}
}

// TestKmerRowsAreNotRegrown pins kmerRowCap: parsing a rank's share of an
// lr8-shaped input for 12 destinations, whole or in 8 000-base rounds, leaves
// every fresh send row with the capacity it was made with — append never had
// to move one.
func TestKmerRowsAreNotRegrown(t *testing.T) {
	cfg := Default(lr8Layout(), KmerMode)
	nProc := cfg.Layout.Ranks()
	reads := lr8Reads(t)
	for name, roundBases := range map[string]int{"one round": 0, "8000-base rounds": 8_000} {
		t.Run(name, func(t *testing.T) {
			// Each third of the reads is a rank's share of the megabase input.
			for share := 0; share < 3; share++ {
				part := reads[share*len(reads)/3 : (share+1)*len(reads)/3]
				bases := roundBases
				if bases == 0 {
					for _, rd := range part {
						bases += len(rd.Seq)
					}
				}
				src := newChunkProducer(Config{}, fastq.NewSliceSource(part), bases, 1, 0)
				for r, more := 0, true; more; r++ {
					var data []byte
					data, more, _ = src.deal(0, r)
					rows, _, _ := cpuParseKmers(cfg, nil, nProc, data, nil)
					for dest, row := range rows {
						if want := kernels.WordFrameHeader + kmerRowCap(len(data), nProc); cap(row) != want {
							t.Fatalf("share %d: row %d of %d bases regrown to %d words (%d k-mers), made with %d", share, dest, len(data), cap(row), len(row), want)
						}
					}
				}
			}
		})
	}
}
