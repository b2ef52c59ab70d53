package kernels

import (
	"math/rand"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/kcount"
	"dedukt/internal/minimizer"
)

// TestCountWindows cuts one arrival into launch windows of arbitrary
// budgets — down to a single k-mer, with nil and empty parts between the
// full ones — and checks each window honours its budget, takes whole images
// only, leaves no gap, and that together they count what one launch counts.
func TestCountWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	data := buildBuffer(randReads(rng, 20, 250, 0.01))
	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}
	d := dev(t)
	built, _, err := BuildSupermers(d, SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 4}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err := ParseKmers(d, ParseConfig{Enc: &dna.Random, K: 17, NumDest: 4}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire := SupermerWire{K: 17, Window: 15}
	supermers, err := IndexSupermers(d, wire, [][]byte{nil, built[0], {}, built[1], built[2], nil, built[3]})
	if err != nil {
		t.Fatal(err)
	}
	oracle := kcount.SerialCount(&dna.Random, [][]byte{data}, 17)
	// A budget no whole image fits is refused, and nothing is launched.
	if next, kmers, st, err := supermers.Count(kcount.NewAtomicTable(1, 0.5, kcount.Linear), 0, 0); err == nil || next != 0 || kmers != 0 || st.Threads != 0 {
		t.Fatalf("budget 0 with images left: next %d, %d k-mers, %d threads, err %v; want a refusal", next, kmers, st.Threads, err)
	}
	for name, in := range map[string]interface {
		Kmers() int
		Count(*kcount.AtomicTable, int, int) (int, int, gpusim.KernelStats, error)
	}{
		"kmers":     IndexKmers(d, [][]uint64{nil, parsed[0], {}, parsed[1], parsed[2], nil, parsed[3]}),
		"supermers": supermers,
	} {
		table := kcount.NewAtomicTable(len(oracle), 0.5, kcount.Linear)
		from, left := 0, in.Kmers()
		for left > 0 {
			budget := 1 + rng.Intn(400)
			next, kmers, st, err := in.Count(table, from, budget)
			if name == "supermers" && err != nil && budget < wire.Window && next == from && st.Threads == 0 {
				continue // refused, nothing launched: no whole image fits
			}
			if err != nil {
				t.Fatal(err)
			}
			if kmers > budget || st.Threads != next-from || (name == "kmers" && kmers != min(budget, left)) ||
				(name == "supermers" && kmers < min(budget, left)-wire.Window+1) {
				t.Fatalf("%s: window at %d took %d k-mers in %d threads to %d: budget %d, %d left", name, from, kmers, st.Threads, next, budget, left)
			}
			from, left = next, left-kmers
		}
		if diff := table.Snapshot().EqualToOracle(oracle); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
	}
}
