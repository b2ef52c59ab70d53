package hash

import (
	"testing"
	"testing/quick"
)

// Reference vectors computed with the canonical C++ MurmurHash3
// (SMHasher) implementation.
func TestSum32Vectors(t *testing.T) {
	cases := []struct {
		in   string
		seed uint32
		want uint32
	}{
		{"", 0, 0},
		{"", 1, 0x514e28b7},
		{"", 0xffffffff, 0x81f16f39},
		{"a", 0, 0x3c2569b2},
		{"aaaa", 0x9747b28c, 0x5a97808a},
		{"Hello, world!", 0x9747b28c, 0x24884cba},
		{"abc", 0, 0xb3dd93fa},
		{"abcd", 0, 0x43ed676a},
		{"The quick brown fox jumps over the lazy dog", 0x9747b28c, 0x2fa826cd},
	}
	for _, c := range cases {
		if got := Sum32([]byte(c.in), c.seed); got != c.want {
			t.Errorf("Sum32(%q, %#x) = %#x, want %#x", c.in, c.seed, got, c.want)
		}
	}
}

func TestSum128Vectors(t *testing.T) {
	cases := []struct {
		in     string
		seed   uint64
		w1, w2 uint64
	}{
		{"", 0, 0, 0},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0, 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0, 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
	}
	for _, c := range cases {
		h1, h2 := Sum128([]byte(c.in), c.seed)
		if h1 != c.w1 || h2 != c.w2 {
			t.Errorf("Sum128(%q) = (%#x, %#x), want (%#x, %#x)", c.in, h1, h2, c.w1, c.w2)
		}
	}
}

func TestSum64MatchesSum128(t *testing.T) {
	data := []byte("GATTACAGATTACA")
	h1, _ := Sum128(data, 7)
	if Sum64(data, 7) != h1 {
		t.Fatal("Sum64 must equal first half of Sum128")
	}
}

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

func TestSum32IncrementalTails(t *testing.T) {
	// Every tail length 0..15 exercised; hash must differ from neighbors.
	data := []byte("abcdefghijklmnop")
	prev := make(map[uint32]int)
	for n := 0; n <= len(data); n++ {
		h := Sum32(data[:n], 0x12345678)
		if at, dup := prev[h]; dup {
			t.Fatalf("len %d collides with len %d", n, at)
		}
		prev[h] = n
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

func TestQuickSum128DeterministicAndSeedSensitive(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		a1, a2 := Sum128(data, seed)
		b1, b2 := Sum128(data, seed)
		if a1 != b1 || a2 != b2 {
			return false
		}
		c1, c2 := Sum128(data, seed+1)
		// With overwhelming probability a different seed changes the hash.
		return len(data) == 0 || a1 != c1 || a2 != c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
