package kernels

import (
	"fmt"
	"sort"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/hash"
	"dedukt/internal/kcount"
)

// slotAddrSeed derives representative device addresses for table probes; it
// matches nothing else so probe traffic is independent of rank assignment.
const slotAddrSeed = 0x7461626c // "tabl"

// probeAddr maps (key, probe#) to a pseudo slot address inside the table's
// key array — random-uniform like the real slot sequence, so the coalescing
// and contention analysis see the true access character (scattered,
// key-correlated) without exporting table internals.
func probeAddr(base uint64, key uint64, i int, capSlots int) uint64 {
	return base + (hash.Mix64Seeded(key, slotAddrSeed+uint64(i))%uint64(capSlots))*8
}

// partOffsets builds the exclusive prefix of part lengths: offsets[i] is the
// global index of part i's first item, offsets[len] the total. The counting
// kernels use it to map a flat thread id onto (part, index) without
// flattening the received payloads into one copy.
func partOffsets(offsets []int, lens func(i int) int, n int) ([]int, int) {
	offsets = grow(offsets, n+1)
	total := 0
	for i := 0; i < n; i++ {
		offsets[i] = total
		total += lens(i)
	}
	offsets[n] = total
	return offsets, total
}

// CountKmers is the GPU counting kernel of §III-B.3: one thread per
// received k-mer; each thread probes the open-addressing table (linear
// probing by default), claims a slot with atomicCAS when the k-mer is new,
// and bumps the count with atomicAdd. Inserts beyond capacity surface as
// ErrTableFull, matching a fixed-size device table.
//
// parts holds one payload per source rank (as delivered by the exchange)
// and is consumed in place — no flatten copy; a nil part is an empty one.
func CountKmers(dev *gpusim.Device, table *kcount.AtomicTable, parts [][]uint64) (st gpusim.KernelStats, err error) {
	keysAddr := dev.Alloc(int64(8 * table.Cap()))
	countsAddr := dev.Alloc(int64(4 * table.Cap()))
	offsets, total := partOffsets(nil, func(i int) int { return len(parts[i]) }, len(parts))
	inAddr := make([]uint64, len(parts))
	for i, p := range parts {
		inAddr[i] = dev.Alloc(int64(8 * len(p)))
	}

	dev.ResetContention()
	st, launchErr := dev.Launch(gpusim.LaunchSpec{Name: "count_kmers", Threads: total}, func(tid int, ctx *gpusim.Ctx) {
		part := sort.SearchInts(offsets, tid+1) - 1
		idx := tid - offsets[part]
		key := parts[part][idx]
		ctx.Read(inAddr[part]+uint64(idx*8), 8)
		isNew, probes, insErr := table.Inc(key)
		if insErr != nil {
			panic(insErr) // recovered by Launch and surfaced as an error
		}
		for i := 0; i < probes; i++ {
			ctx.Read(probeAddr(keysAddr, key, i, table.Cap()), 8)
			ctx.Compute(OpsProbe)
		}
		if isNew {
			// atomicCAS claiming the slot.
			ctx.Atomic(probeAddr(keysAddr, key, probes-1, table.Cap()), 8)
		}
		// atomicAdd on the count word; hot k-mers hammer one address, the
		// contention the paper blames for skew-induced slowdowns (§V-E).
		ctx.Atomic(countsAddr+(hash.Mix64(key)%uint64(table.Cap()))*4, 4)
		ctx.Compute(OpsEmit)
	})
	if launchErr != nil {
		return st, launchErr
	}
	return st, nil
}

// CountSupermers is the supermer-mode counting kernel (Alg. 2 COUNTKMER):
// one thread per received supermer; the thread decodes its packed bases,
// re-extracts the constituent k-mers, and inserts each into the table. The
// per-thread k-mer count varies with supermer length, so warps diverge —
// the cost model charges the warp-max path, reproducing the ~27% counting
// overhead the paper measures for supermer mode (§IV-B).
//
// parts holds one wire buffer per source rank and is consumed in place.
func CountSupermers(dev *gpusim.Device, table *kcount.AtomicTable, wire SupermerWire, parts [][]byte) (st gpusim.KernelStats, err error) {
	if err := wire.Validate(); err != nil {
		return st, err
	}
	stride := wire.Stride()
	// Received bytes are untrusted: validate every image up front so the
	// per-thread decodes below cannot fail mid-kernel.
	counts := make([]int, len(parts))
	for i, p := range parts {
		n, _, err := wire.VerifyImages(p)
		if err != nil {
			return st, fmt.Errorf("part %d: %w", i, err)
		}
		counts[i] = n
	}
	offsets, total := partOffsets(nil, func(i int) int { return counts[i] }, len(parts))

	keysAddr := dev.Alloc(int64(8 * table.Cap()))
	countsAddr := dev.Alloc(int64(4 * table.Cap()))
	inAddr := make([]uint64, len(parts))
	for i, p := range parts {
		inAddr[i] = dev.Alloc(int64(len(p)))
	}

	k := wire.K
	dev.ResetContention()
	st, launchErr := dev.Launch(gpusim.LaunchSpec{Name: "count_supermers", Threads: total}, func(tid int, ctx *gpusim.Ctx) {
		part := sort.SearchInts(offsets, tid+1) - 1
		idx := tid - offsets[part]
		img := parts[part][idx*stride : (idx+1)*stride]
		ctx.Read(inAddr[part]+uint64(idx*stride), stride)
		seq, nk, _ := wire.Decode(img) // images verified before launch
		// Roll the first k-mer, then slide one base at a time — the "extra
		// parsing phase ... to extract k-mers from the received supermers".
		var w dna.Kmer
		for i := 0; i < k-1; i++ {
			w = w.Append(k, seq.At(i))
			ctx.Compute(OpsKmerRoll)
		}
		for i := 0; i < nk; i++ {
			w = w.Append(k, seq.At(i+k-1))
			ctx.Compute(OpsKmerRoll)
			key := uint64(w)
			isNew, probes, insErr := table.Inc(key)
			if insErr != nil {
				panic(insErr)
			}
			for p := 0; p < probes; p++ {
				ctx.Read(probeAddr(keysAddr, key, p, table.Cap()), 8)
				ctx.Compute(OpsProbe)
			}
			if isNew {
				ctx.Atomic(probeAddr(keysAddr, key, probes-1, table.Cap()), 8)
			}
			ctx.Atomic(countsAddr+(hash.Mix64(key)%uint64(table.Cap()))*4, 4)
			ctx.Compute(OpsEmit)
		}
	})
	if launchErr != nil {
		return st, launchErr
	}
	return st, nil
}
