// Package kernels implements the three GPU kernels of the DEDUKT pipeline
// on the gpusim device: ParseKmers (§III-B.1, Fig. 2), BuildSupermers
// (§IV-B, Fig. 5, Alg. 2) and CountKmers/CountSupermers (§III-B.3). The
// kernels compute real results — packed k-mers, supermers and counted
// tables — while recording the abstract work the cost model converts to
// V100 time.
//
// The same abstract-op constants are shared by the scalar CPU baseline
// (internal/pipeline), so CPU-vs-GPU comparisons reflect architecture and
// algorithm, not inconsistent bookkeeping.
package kernels

import "dedukt/internal/hash"

// Abstract operation costs, in scalar ALU ops. These are coarse but
// consistent: what matters for every reproduced figure is the *ratio*
// structure (parse vs count vs exchange, CPU vs GPU), which these capture.
const (
	// OpsEncodeBase: ASCII → 2-bit table lookup plus validity branch.
	OpsEncodeBase = 2
	// OpsKmerRoll: shift, or, mask to extend a rolling packed k-mer.
	OpsKmerRoll = 3
	// OpsHash: MurmurHash3 fmix64 finalizer (3 shifts, 2 mults, 3 xors).
	OpsHash = 12
	// OpsDestSelect: map a hash to a destination rank.
	OpsDestSelect = 3
	// OpsMinimizerCand: evaluate one m-mer candidate — extract the m-mer
	// (two shifts + mask), rank it, compare, conditionally update, plus
	// loop overhead.
	OpsMinimizerCand = 10
	// OpsProbe: hash-table probe bookkeeping (index math + compare).
	OpsProbe = 6
	// OpsPackBase: append one base to a packed supermer register.
	OpsPackBase = 2
	// OpsEmit: close out a supermer / write a k-mer record (cursor math).
	OpsEmit = 4
	// OpsScanStep: one element's share of a work-efficient Blelloch
	// exclusive scan (up-sweep add + down-sweep swap, amortized).
	OpsScanStep = 4
)

// DestSeed seeds the destination-rank hash; it must differ from the table
// slot seed so a rank's partition does not collapse onto a table stripe.
const DestSeed = 0x6b6d6572 // "kmer"

// DestOf maps a packed key (k-mer or minimizer) to its owner rank, the
// HASH(·, nProc) of Alg. 1 line 5 / Alg. 2 line 7. Every occurrence of a
// key maps to the same rank — the invariant the global hash table relies on.
func DestOf(key uint64, nProc int) int {
	return int(hash.Mix64Seeded(key, DestSeed) % uint64(nProc))
}

// FlatExchangeMessages is the fabric message count of one flat P×P payload
// Alltoallv round: every rank addresses every rank.
func FlatExchangeMessages(p int) int { return p * p }

// HierExchangeMessages is the fabric message count of one leader-routed
// exchange round, the route pipeline.Result.HierExchange prices: intra-node
// gather and scatter ride the NVLink tier (no fabric messages), so the
// fabric only carries the L×L leader Alltoallv where L = ceil(p /
// ranksPerNode) — a ragged last node still fields a leader. ranksPerNode
// <= 1 degenerates to the flat count.
func HierExchangeMessages(p, ranksPerNode int) int {
	if ranksPerNode <= 1 {
		return FlatExchangeMessages(p)
	}
	l := (p + ranksPerNode - 1) / ranksPerNode
	return l * l
}

// WorkMeter accumulates the scalar cost of CPU-side execution with the same
// constants the GPU kernels use; internal/cluster.CPUModel converts it to
// Power9 seconds.
type WorkMeter struct {
	// Ops is the abstract ALU op count.
	Ops uint64
	// Bytes is the memory traffic touched (reads + writes).
	Bytes uint64
	// Items is the number of k-mers processed; the CPU model charges its
	// calibrated per-item software overhead against it.
	Items uint64
}

// AddOps records n abstract ops.
func (w *WorkMeter) AddOps(n int) { w.Ops += uint64(n) }

// AddBytes records n bytes of memory traffic.
func (w *WorkMeter) AddBytes(n int) { w.Bytes += uint64(n) }

// AddItems records n processed k-mers.
func (w *WorkMeter) AddItems(n int) { w.Items += uint64(n) }

// Add accumulates another meter.
func (w *WorkMeter) Add(o WorkMeter) {
	w.Ops += o.Ops
	w.Bytes += o.Bytes
	w.Items += o.Items
}
