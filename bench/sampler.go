package main

import (
	"math/rand"

	"dedukt/internal/kcount"
)

// zipfScatter spreads Zipf ranks over the sorted key space so the hot keys
// are not neighbours (and therefore not all on one shard). It is a prime
// larger than any database here, so rank -> index is a bijection.
const zipfScatter = 2654435761

// keySampler draws lookup keys from a served database: present keys
// uniformly or by Zipf rank, plus a stated share of keys the database does
// not hold. kcluster.RunLoad is not used because its random k-mers are
// absent from any realistic spectrum (4^17 possible keys against ~10^6
// served), which makes every row an all-miss load.
type keySampler struct {
	rng    *rand.Rand
	db     *kcount.Database
	zipf   *rand.Zipf // nil draws present keys uniformly
	absent float64    // share of draws that must miss
	mask   uint64
}

// newKeySampler builds a sampler over db. zipfS > 1 selects Zipf-ranked
// draws with that exponent; 0 selects uniform draws.
func newKeySampler(seed int64, db *kcount.Database, zipfS, absent float64) *keySampler {
	s := &keySampler{
		rng:    rand.New(rand.NewSource(seed)),
		db:     db,
		absent: absent,
		mask:   uint64(1)<<(2*uint(db.K)) - 1,
	}
	if zipfS > 1 {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(db.Len()-1))
	}
	return s
}

// next returns a key and the count the database holds for it (0 for an
// absent key).
func (s *keySampler) next() (key uint64, want uint32) {
	if s.absent > 0 && s.rng.Float64() < s.absent {
		for {
			key = s.rng.Uint64() & s.mask
			if s.db.Get(key) == 0 {
				return key, 0
			}
		}
	}
	n := uint64(s.db.Len())
	var idx uint64
	if s.zipf != nil {
		idx = s.zipf.Uint64() * zipfScatter % n
	} else {
		idx = uint64(s.rng.Int63n(int64(n)))
	}
	e := s.db.Entries[idx]
	return e.Key, e.Count
}
