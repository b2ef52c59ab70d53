package pipeline

import (
	"runtime"
	"strconv"
	"testing"

	"dedukt/internal/kcount"
	"dedukt/internal/obs"
)

// TestGPUTableReservation pins the reservation rule through the per-rank
// table gauges: the GPU engine reserves room for the k-mers that arrive,
// so a rank's table never exceeds the slots kcount.NewAtomicTable picks for
// the k-mers the rank received in total (a supermer used to reserve Window
// slots whatever its length byte said), while the reservation stays an
// upper bound on distinct keys — the load ceiling holds. Under spill the
// same bounds hold for the largest pass-2 bin table.
func TestGPUTableReservation(t *testing.T) {
	reads := testReads(t, 20_000, 8)
	cases := map[string]func(*Config){
		"one round":  func(*Config) {},
		"rounds":     func(c *Config) { c.RoundBases = 4_000 },
		"kmer mode":  func(c *Config) { c.Mode = KmerMode },
		"spill bins": func(c *Config) { c.Spill = SpillConfig{Dir: t.TempDir(), Bins: 4} },
	}
	for name, set := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := Default(smallGPULayout(1), SupermerMode)
			set(&cfg)
			rec := obs.NewRecorder(cfg.Layout.Ranks())
			cfg.Obs = rec
			res, err := Run(cfg, reads)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, cfg, reads, res)
			for rank, kmers := range res.PerRankKmers {
				gauge := func(name string) float64 {
					return rec.Registry().Gauge(name, "", obs.L("rank", strconv.Itoa(rank))).Value()
				}
				slots, load := gauge("pipeline_table_slots"), gauge("pipeline_table_load_factor")
				if load <= 0 || load > cfg.tableLoad() {
					t.Errorf("rank %d: load factor %.3f outside (0, %.2f]", rank, load, cfg.tableLoad())
				}
				if most := kcount.NewAtomicTable(int(kmers), cfg.tableLoad(), cfg.Probing).Cap(); slots > float64(most) {
					t.Errorf("rank %d: %v slots for %d k-mers received, want at most %d", rank, slots, kmers, most)
				}
				if grows := gauge("pipeline_table_grows"); cfg.RoundBases == 0 && cfg.Spill.Dir == "" && grows != 1 {
					t.Errorf("rank %d: %v grows in a single-round run, want the one reservation", rank, grows)
				}
			}
		})
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
