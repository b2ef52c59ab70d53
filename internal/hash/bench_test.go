package hash

import "testing"

func BenchmarkMix64(b *testing.B) {
	var h uint64
	for i := 0; i < b.N; i++ {
		h = Mix64(h + uint64(i))
	}
	_ = h
}

func BenchmarkSum32(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum32(data, 0)
	}
}

func BenchmarkSum128(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum128(data, 0)
	}
}
