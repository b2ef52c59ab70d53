package hash

import "testing"

func TestMix64Bijective(t *testing.T) {
	// fmix64 is invertible; check no collisions over a structured sample
	// (sequential packed k-mers are exactly the adversarial input here).
	seen := make(map[uint64]uint64, 1<<16)
	for x := uint64(0); x < 1<<16; x++ {
		h := Mix64(x)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", x, prev)
		}
		seen[h] = x
	}
}

func TestMix64SeededDiffers(t *testing.T) {
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if Mix64Seeded(x, 1) == Mix64Seeded(x, 2) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/1000 values hashed identically under different seeds", same)
	}
}

func TestUniformityOfRankAssignment(t *testing.T) {
	// The paper relies on MurmurHash3 giving near-uniform rank assignment.
	// Hash 200k sequential "k-mers" into 96 buckets and check max/avg skew.
	const n, p = 200000, 96
	counts := make([]int, p)
	for x := uint64(0); x < n; x++ {
		counts[Mix64(x)%p]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	avg := float64(n) / p
	if imbalance := float64(max) / avg; imbalance > 1.10 {
		t.Fatalf("rank assignment imbalance %.3f > 1.10", imbalance)
	}
}
