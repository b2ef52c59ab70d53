// Package hash provides MurmurHash3's 64-bit finalizer (fmix64), the hash
// the paper uses both to assign k-mers to destination processors (Alg. 1
// line 5) and to pick slots in the GPU open-addressing counter table
// (§III-B.3). Packed k-mers are already one word, so the finalizer alone —
// a fast bijective mixer — is every hash the pipeline runs; MurmurHash3's
// bulk byte-slice variants are not needed.
package hash

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Mix64 applies the MurmurHash3 64-bit finalizer to a single word. It is a
// bijection on uint64, so distinct packed k-mers never collide before the
// modulo — the property the destination-assignment tests rely on.
func Mix64(x uint64) uint64 { return fmix64(x) }

// Mix64Seeded folds a seed into the word before finalizing; used to derive
// independent hash functions (e.g. table slot vs. destination rank).
func Mix64Seeded(x, seed uint64) uint64 { return fmix64(x ^ seed) }
