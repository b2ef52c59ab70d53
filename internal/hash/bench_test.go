package hash

import "testing"

func BenchmarkMix64(b *testing.B) {
	var h uint64
	for i := 0; i < b.N; i++ {
		h = Mix64(h + uint64(i))
	}
	_ = h
}
