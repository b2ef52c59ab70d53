package fault

import (
	"math/bits"
	"testing"
)

// TestCorruptGoldenBits pins the bit Corrupt flips for a fixed seed, for a
// 37-byte frame and a 5-word frame at several (rank, round, attempt, dest)
// coordinates. The values were recorded from the separate per-byte and
// per-word implementations Corrupt replaced: every fault-matrix test
// downstream replays a schedule that depends on this selection, so a
// change here silently changes which frames fail verification.
func TestCorruptGoldenBits(t *testing.T) {
	golden := []struct {
		rank, round, attempt, dest int
		byteBit, wordBit           int
	}{
		{0, 0, 0, 0, 1, 65},
		{1, 0, 0, 2, 179, 275},
		{3, 2, 1, 5, 153, 137},
		{7, 11, 3, 0, 60, 28},
		{2, 5, 0, 7, 8, 24},
	}
	in, err := New(Config{Seed: 0xD5EED, Corrupt: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		bout, hit := Corrupt(in, g.rank, g.round, g.attempt, g.dest, make([]byte, 37))
		if !hit {
			t.Fatalf("%+v: byte corrupt with p=1 did not fire", g)
		}
		if got := flippedBit(bout); got != g.byteBit {
			t.Errorf("%+v: byte frame flipped bit %d, want %d", g, got, g.byteBit)
		}
		wout, hit := Corrupt(in, g.rank, g.round, g.attempt, g.dest, make([]uint64, 5))
		if !hit {
			t.Fatalf("%+v: word corrupt with p=1 did not fire", g)
		}
		if got := flippedBit(wout); got != g.wordBit {
			t.Errorf("%+v: word frame flipped bit %d, want %d", g, got, g.wordBit)
		}
	}
}

// flippedBit returns the index of the single set bit of an otherwise
// zero frame, or -1 when the frame does not hold exactly one.
func flippedBit[T byte | uint64](frame []T) int {
	width := bits.Len64(uint64(^T(0)))
	at := -1
	for i, u := range frame {
		if u == 0 {
			continue
		}
		if at >= 0 || bits.OnesCount64(uint64(u)) != 1 {
			return -1
		}
		at = width*i + bits.TrailingZeros64(uint64(u))
	}
	return at
}
