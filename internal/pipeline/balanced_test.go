package pipeline

import (
	"testing"

	"dedukt/internal/fastq"
)

func TestBalancedPartitionReducesImbalance(t *testing.T) {
	// §VII future work, implemented: frequency-aware minimizer assignment
	// must (a) count identically, (b) keep the k-mer→rank function
	// consistent (oracle equality implies it), and (c) cut the supermer
	// load imbalance versus hash assignment.
	reads := testReads(t, 40_000, 10)
	layout := smallGPULayout(2)
	hashCfg := Default(layout, SupermerMode)
	balCfg := hashCfg
	balCfg.BalancedPartition = true

	resHash, err := Run(hashCfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	resBal, err := Run(balCfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, balCfg, reads, resBal)
	if resBal.TotalKmers != resHash.TotalKmers || resBal.DistinctKmers != resHash.DistinctKmers {
		t.Fatal("balanced partitioning changed counting results")
	}
	liHash, liBal := resHash.LoadImbalance(), resBal.LoadImbalance()
	if liBal >= liHash {
		t.Fatalf("balanced imbalance %.3f not below hash imbalance %.3f", liBal, liHash)
	}
	t.Logf("supermer load imbalance: hash %.3f -> balanced %.3f", liHash, liBal)
}

func TestBalancedPartitionCPU(t *testing.T) {
	reads := testReads(t, 15_000, 6)
	layout := smallGPULayout(1)
	_ = layout
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.BalancedPartition = true
	res, err := Run(cfg, reads)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, cfg, reads, res)
}

func TestBalancedPartitionValidation(t *testing.T) {
	cfg := Default(smallGPULayout(1), SupermerMode)
	cfg.BalancedPartition = true
	cfg.M = 13
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("balanced partitioning with m=13 should be rejected")
	}
}

func TestBuildBalancedMapProperties(t *testing.T) {
	reads := testReads(t, 10_000, 4)
	cfg := Default(smallGPULayout(1), SupermerMode)
	m, err := buildBalancedMap(cfg, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 1<<(2*uint(cfg.M)) {
		t.Fatalf("map has %d entries, want 4^%d", len(m), cfg.M)
	}
	p := cfg.Layout.Ranks()
	for bin, rank := range m {
		if int(rank) >= p {
			t.Fatalf("bin %d assigned to out-of-range rank %d", bin, rank)
		}
	}
	// Deterministic.
	m2, err := buildBalancedMap(cfg, fastq.NewSliceSource(reads))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i] != m2[i] {
			t.Fatal("balanced map is not deterministic")
		}
	}
}
