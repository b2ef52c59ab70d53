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

// KmerArrival is one count's received k-mer parts — one payload per source
// rank, as delivered by the exchange, consumed in place with no flatten
// copy; a nil part is an empty one — indexed once as a flat item space, so
// the count can be launched over any window of it without re-indexing.
type KmerArrival struct {
	dev     *gpusim.Device
	parts   [][]uint64
	offsets []int    // exclusive prefix of part lengths; offsets[len] is the total
	inAddr  []uint64 // device address of each part
}

// IndexKmers lays parts out on the device for windowed counting.
func IndexKmers(dev *gpusim.Device, parts [][]uint64) *KmerArrival {
	a := &KmerArrival{dev: dev, parts: parts, offsets: make([]int, len(parts)+1), inAddr: make([]uint64, len(parts))}
	for i, p := range parts {
		a.offsets[i+1] = a.offsets[i] + len(p)
		a.inAddr[i] = dev.Alloc(int64(8 * len(p)))
	}
	return a
}

// Kmers returns the k-mers the arrival holds.
func (a *KmerArrival) Kmers() int { return a.offsets[len(a.parts)] }

// Count is the GPU counting kernel of §III-B.3 over the window of at most
// budget k-mers that starts at flat item from: one thread per k-mer; each
// thread probes the open-addressing table (linear probing),
// claims a slot with atomicCAS when the k-mer is new, and bumps the count
// with atomicAdd. It returns the item after the window and the k-mers the
// window held. Inserts beyond capacity surface as ErrTableFull, matching a
// fixed-size device table.
func (a *KmerArrival) Count(table *kcount.AtomicTable, from, budget int) (next, kmers int, st gpusim.KernelStats, err error) {
	next = min(from+budget, a.Kmers())
	dev := a.dev
	keysAddr := dev.Alloc(int64(8 * table.Cap()))
	countsAddr := dev.Alloc(int64(4 * table.Cap()))
	parts, offsets, inAddr := a.parts, a.offsets, a.inAddr

	dev.ResetContention()
	st, err = dev.Launch(gpusim.LaunchSpec{Name: "count_kmers", Threads: next - from}, func(tid int, ctx *gpusim.Ctx) {
		item := from + tid
		part := sort.SearchInts(offsets, item+1) - 1
		idx := item - offsets[part]
		key := parts[part][idx]
		ctx.Read(inAddr[part]+uint64(idx*8), 8)
		insert(ctx, table, key, keysAddr, countsAddr)
	})
	return next, next - from, st, err
}

// insert is one thread's table update for one k-mer, with the accesses it
// costs: a read per probed slot, the atomicCAS that claims a new slot, and
// the atomicAdd on the count word — hot k-mers hammer one address, the
// contention the paper blames for skew-induced slowdowns (§V-E).
func insert(ctx *gpusim.Ctx, table *kcount.AtomicTable, key, keysAddr, countsAddr uint64) {
	isNew, probes, err := table.Inc(key)
	if err != nil {
		panic(err) // recovered by Launch and surfaced as an error
	}
	for i := 0; i < probes; i++ {
		ctx.Read(probeAddr(keysAddr, key, i, table.Cap()), 8)
		ctx.Compute(OpsProbe)
	}
	if isNew {
		ctx.Atomic(probeAddr(keysAddr, key, probes-1, table.Cap()), 8)
	}
	ctx.Atomic(countsAddr+(hash.Mix64(key)%uint64(table.Cap()))*4, 4)
	ctx.Compute(OpsEmit)
}

// CountKmers counts every received k-mer into table in one launch.
func CountKmers(dev *gpusim.Device, table *kcount.AtomicTable, parts [][]uint64) (gpusim.KernelStats, error) {
	a := IndexKmers(dev, parts)
	_, _, st, err := a.Count(table, 0, a.Kmers())
	return st, err
}

// SupermerArrival is one count's received supermer wire buffers — one per
// source rank, consumed in place — verified and indexed once as a flat
// space of images.
type SupermerArrival struct {
	dev     *gpusim.Device
	wire    SupermerWire
	parts   [][]byte
	offsets []int    // exclusive prefix of per-part image counts
	inAddr  []uint64 // device address of each part
	kmers   int
}

// IndexSupermers lays parts out on the device for windowed counting.
// Received bytes are untrusted: every image is validated here, once, so the
// per-thread decodes of the launches cannot fail mid-kernel.
func IndexSupermers(dev *gpusim.Device, wire SupermerWire, parts [][]byte) (*SupermerArrival, error) {
	if err := wire.Validate(); err != nil {
		return nil, err
	}
	a := &SupermerArrival{dev: dev, wire: wire, parts: parts, offsets: make([]int, len(parts)+1), inAddr: make([]uint64, len(parts))}
	for i, p := range parts {
		images, kmers, err := wire.VerifyImages(p)
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		a.offsets[i+1] = a.offsets[i] + images
		a.kmers += kmers
		a.inAddr[i] = dev.Alloc(int64(len(p)))
	}
	return a, nil
}

// Kmers returns the k-mers the arrival's images hold.
func (a *SupermerArrival) Kmers() int { return a.kmers }

// Count is the supermer-mode counting kernel (Alg. 2 COUNTKMER) over the
// window that starts at flat image from and takes whole images while their
// k-mers fit budget: one thread per supermer; the thread decodes its packed
// bases, re-extracts the constituent k-mers, and inserts each into the
// table. The per-thread k-mer count varies with supermer length, so warps
// diverge — the cost model charges the warp-max path, reproducing the ~27%
// counting overhead the paper measures for supermer mode (§IV-B). It
// returns the image after the window and the k-mers the window held. A
// budget of at least wire.Window k-mers always advances; one the next image
// does not fit is an error, and nothing is launched.
func (a *SupermerArrival) Count(table *kcount.AtomicTable, from, budget int) (next, kmers int, st gpusim.KernelStats, err error) {
	dev, parts, offsets, inAddr := a.dev, a.parts, a.offsets, a.inAddr
	k, stride := a.wire.K, a.wire.Stride()
	if images := offsets[len(parts)]; from == 0 && budget >= a.kmers {
		// The whole arrival in one launch: IndexSupermers summed it already.
		next, kmers = images, a.kmers
	} else {
		next = from
	walk:
		for part := sort.SearchInts(offsets, from+1) - 1; part < len(parts); part++ {
			for ; next < offsets[part+1]; next++ {
				nk := int(parts[part][(next-offsets[part]+1)*stride-1]) // the image's length byte
				if kmers+nk > budget {
					break walk
				}
				kmers += nk
			}
		}
		if next == from && from < images {
			return from, 0, st, fmt.Errorf("kernels: a budget of %d k-mers holds no whole supermer at image %d", budget, from)
		}
	}
	keysAddr := dev.Alloc(int64(8 * table.Cap()))
	countsAddr := dev.Alloc(int64(4 * table.Cap()))

	dev.ResetContention()
	st, err = dev.Launch(gpusim.LaunchSpec{Name: "count_supermers", Threads: next - from}, func(tid int, ctx *gpusim.Ctx) {
		item := from + tid
		part := sort.SearchInts(offsets, item+1) - 1
		idx := item - offsets[part]
		img := parts[part][idx*stride : (idx+1)*stride]
		ctx.Read(inAddr[part]+uint64(idx*stride), stride)
		seq, nk, _ := a.wire.Decode(img) // images verified by IndexSupermers
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
			insert(ctx, table, uint64(w), keysAddr, countsAddr)
		}
	})
	return next, kmers, st, err
}

// CountSupermers counts every received supermer into table in one launch.
func CountSupermers(dev *gpusim.Device, table *kcount.AtomicTable, wire SupermerWire, parts [][]byte) (gpusim.KernelStats, error) {
	a, err := IndexSupermers(dev, wire, parts)
	if err != nil {
		return gpusim.KernelStats{}, err
	}
	_, _, st, err := a.Count(table, 0, a.Kmers())
	return st, err
}
