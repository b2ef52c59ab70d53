package cluster

import (
	"math"
	"testing"
	"time"

	"dedukt/internal/gpusim"
)

func TestLayouts(t *testing.T) {
	g := SummitGPU(64)
	if g.Ranks() != 384 {
		t.Fatalf("GPU ranks = %d, want 384", g.Ranks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := SummitCPU(64)
	if c.Ranks() != 2688 {
		t.Fatalf("CPU ranks = %d, want 2688", c.Ranks())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutValidation(t *testing.T) {
	bad := Layout{Name: "x", Nodes: 0, RanksPerNode: 6}
	if bad.Validate() == nil {
		t.Error("zero nodes should fail")
	}
	both := SummitGPU(1)
	cpu := Power9()
	both.CPU = &cpu
	if both.Validate() == nil {
		t.Error("both models should fail")
	}
	neither := SummitGPU(1)
	neither.GPU = nil
	if neither.Validate() == nil {
		t.Error("no model should fail")
	}
	badGPU := SummitGPU(1)
	cfg := gpusim.V100()
	cfg.NumSMs = 0
	badGPU.GPU = &cfg
	if badGPU.Validate() == nil {
		t.Error("invalid GPU config should fail")
	}
}

func TestCPUModelRankTime(t *testing.T) {
	m := Power9()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Compute-bound: 7.675e9 ops at 3.07 GHz × 2.5 IPC = 1 s.
	ops := uint64(m.ClockGHz * 1e9 * m.IPC)
	got := m.RankTime(ops, 0, 0)
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("compute-bound rank time %v, want ~1s", got)
	}
	// Memory-bound: per-rank share is 340/42 GB/s.
	share := m.MemBandwidthGBs * 1e9 / float64(m.CoresPerNode)
	got = m.RankTime(0, uint64(share), 0)
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("memory-bound rank time %v, want ~1s", got)
	}
	if m.RankTime(0, 0, 0) != 0 {
		t.Fatal("zero work should cost zero")
	}
	// The per-item overhead is a power law of the load: s times the items
	// cost s^(1+PerItemExp) times as much, the identity a projection to a
	// larger input reads the baseline by.
	for _, s := range []uint64{2, 1_000} {
		const items = 600_000
		got := m.RankTime(0, 0, s*items).Seconds() / m.RankTime(0, 0, items).Seconds()
		if want := math.Pow(float64(s), 1+m.PerItemExp); math.Abs(got/want-1) > 1e-9 {
			t.Fatalf("%d× the items cost %.9g× as much, want %.9g×", s, got, want)
		}
	}
	bad := CPUModel{}
	if bad.Validate() == nil {
		t.Fatal("zero model should be invalid")
	}
}

func TestCPUModelItemCostCalibration(t *testing.T) {
	// The power law must hit the paper's two published operating points
	// within tolerance: ≈4.5 µs/k-mer at 0.6 M k-mers/rank (Fig. 6a) and
	// ≈23 µs/k-mer at 62 M k-mers/rank (Fig. 3a).
	m := Power9()
	small := m.ItemCostNs(613_000)
	if small < 3_000 || small > 6_500 {
		t.Fatalf("item cost at 0.6M = %.0f ns, want ≈4500", small)
	}
	big := m.ItemCostNs(62_000_000)
	if big < 18_000 || big > 30_000 {
		t.Fatalf("item cost at 62M = %.0f ns, want ≈23000", big)
	}
	if m.ItemCostNs(0) != 0 {
		t.Fatal("zero items should cost zero")
	}
	// Per-item overhead dominates the op/bandwidth terms at real loads.
	items := uint64(1_000_000)
	withItems := m.RankTime(0, 0, items)
	if withItems < time.Duration(float64(items)*m.ItemCostNs(items))*time.Nanosecond {
		t.Fatal("item overhead not charged")
	}
}

func TestNodeComputeRatioInPaperRange(t *testing.T) {
	// Whole-node abstract op throughput: 6 V100s vs 42 Power9 cores. The
	// paper measures ~100× kernel acceleration (Fig. 3); our calibration
	// must land within a factor ~2 of that when kernels are compute-bound
	// (memory/atomic rooflines pull the realized ratio further down).
	gpu := gpusim.V100()
	gpuNode := 6 * float64(gpu.NumSMs*gpu.ALULanesPerSM) * gpu.ClockGHz * 1e9
	cpu := Power9()
	cpuNode := float64(cpu.CoresPerNode) * cpu.ClockGHz * 1e9 * cpu.IPC
	ratio := gpuNode / cpuNode
	if ratio < 60 || ratio > 300 {
		t.Fatalf("node compute ratio %.0f outside plausible range for the paper's ~100×", ratio)
	}
}
