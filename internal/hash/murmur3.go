// Package hash implements MurmurHash3 from scratch, the hash family the
// paper uses both to assign k-mers to destination processors (Alg. 1 line 5)
// and to pick slots in the GPU open-addressing counter table (§III-B.3).
//
// Three variants are provided:
//
//   - Sum32: MurmurHash3_x86_32, the classic 32-bit hash.
//   - Sum128: MurmurHash3_x64_128, the 128-bit hash (the variant diBELLA
//     uses for k-mer bucketing).
//   - Mix64: the 64-bit finalizer (fmix64), a fast bijective mixer ideal for
//     already-packed k-mer words — this is what the hot GPU kernels use.
//
// All variants are implemented over byte slices and over raw uint64 words so
// the packed k-mer path never materializes bytes.
package hash

import "encoding/binary"

const (
	c1x86 = 0xcc9e2d51
	c2x86 = 0x1b873593

	c1x64 = 0x87c37b91114253d5
	c2x64 = 0x4cf5ad432745937f
)

func rotl32(x uint32, r uint) uint32 { return x<<r | x>>(32-r) }
func rotl64(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Sum32 computes MurmurHash3_x86_32 of data with the given seed.
func Sum32(data []byte, seed uint32) uint32 {
	h1 := seed
	nblocks := len(data) / 4
	for i := 0; i < nblocks; i++ {
		k1 := binary.LittleEndian.Uint32(data[i*4:])
		k1 *= c1x86
		k1 = rotl32(k1, 15)
		k1 *= c2x86
		h1 ^= k1
		h1 = rotl32(h1, 13)
		h1 = h1*5 + 0xe6546b64
	}
	// Tail.
	var k1 uint32
	tail := data[nblocks*4:]
	switch len(tail) {
	case 3:
		k1 ^= uint32(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint32(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint32(tail[0])
		k1 *= c1x86
		k1 = rotl32(k1, 15)
		k1 *= c2x86
		h1 ^= k1
	}
	h1 ^= uint32(len(data))
	return fmix32(h1)
}

// Sum128 computes MurmurHash3_x64_128 of data with the given seed, returning
// the two 64-bit halves.
func Sum128(data []byte, seed uint64) (uint64, uint64) {
	h1, h2 := seed, seed
	nblocks := len(data) / 16
	for i := 0; i < nblocks; i++ {
		k1 := binary.LittleEndian.Uint64(data[i*16:])
		k2 := binary.LittleEndian.Uint64(data[i*16+8:])

		k1 *= c1x64
		k1 = rotl64(k1, 31)
		k1 *= c2x64
		h1 ^= k1

		h1 = rotl64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2x64
		k2 = rotl64(k2, 33)
		k2 *= c1x64
		h2 ^= k2

		h2 = rotl64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	// Tail.
	var k1, k2 uint64
	tail := data[nblocks*16:]
	switch len(tail) {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2x64
		k2 = rotl64(k2, 33)
		k2 *= c1x64
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1x64
		k1 = rotl64(k1, 31)
		k1 *= c2x64
		h1 ^= k1
	}

	h1 ^= uint64(len(data))
	h2 ^= uint64(len(data))
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

// Sum64 returns the first 64-bit half of Sum128, the common single-word
// digest of the 128-bit variant.
func Sum64(data []byte, seed uint64) uint64 {
	h1, _ := Sum128(data, seed)
	return h1
}

// Mix64 applies the MurmurHash3 64-bit finalizer to a single word. It is a
// bijection on uint64, so distinct packed k-mers never collide before the
// modulo — the property the destination-assignment tests rely on.
func Mix64(x uint64) uint64 { return fmix64(x) }

// Mix64Seeded folds a seed into the word before finalizing; used to derive
// independent hash functions (e.g. table slot vs. destination rank).
func Mix64Seeded(x, seed uint64) uint64 { return fmix64(x ^ seed) }
