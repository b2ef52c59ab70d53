package kernels

import (
	"fmt"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
)

// ParseConfig parameterizes the k-mer parsing kernel.
type ParseConfig struct {
	// Enc is the 2-bit base encoding.
	Enc *dna.Encoding
	// K is the k-mer length.
	K int
	// NumDest is the number of destination ranks (hash-table partitions).
	NumDest int
	// Canonical, when true, replaces each k-mer with the smaller of itself
	// and its reverse complement before hashing, so a k-mer and its RC
	// share one table entry. The paper does not canonicalize; this is a
	// library option.
	Canonical bool
	// Headroom is the number of words left unwritten ahead of each
	// destination's part in the returned rows — room for the exchange frame
	// header (WordFrameHeader), so a row is sealed into its wire frame in
	// place. Zero returns the bare parts.
	Headroom int
}

// Validate checks the configuration.
func (c ParseConfig) Validate() error {
	if c.Enc == nil {
		return fmt.Errorf("kernels: nil encoding")
	}
	if c.K <= 0 || c.K > dna.MaxK {
		return fmt.Errorf("kernels: k=%d outside (0,%d]", c.K, dna.MaxK)
	}
	if c.NumDest <= 0 {
		return fmt.Errorf("kernels: NumDest=%d", c.NumDest)
	}
	if c.Headroom < 0 {
		return fmt.Errorf("kernels: Headroom=%d", c.Headroom)
	}
	return nil
}

// grow returns s resized to n elements, reusing its backing array when it is
// large enough (contents are unspecified — callers overwrite).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Packed is the output of one packing-kernel call: a contiguous arena
// partitioned by destination, and the per-destination rows viewing it. A zero
// value is ready to use. It is all of a kernel's buffers that outlives the
// call — the rows are what the exchange ships — so it is all the caller
// holds: a caller that must keep several calls' rows alive rotates Packed
// values, and the staging the kernel reads back within the call comes from
// the pooled stagingSlot.
type Packed[T any] struct {
	buf  []T
	rows [][]T
}

// layout sizes the arena for the destination ranges destOff (in items of
// unit elements each) with headroom elements of room ahead of every range,
// and cuts the capacity-clamped rows: row d is its headroom followed by its
// part. The arena's contents are unspecified — the scatter pass overwrites
// every part, and the headroom is the caller's to seal.
func (p *Packed[T]) layout(destOff []int, unit, headroom int) [][]T {
	numDest := len(destOff) - 1
	p.buf = grow(p.buf, destOff[numDest]*unit+numDest*headroom)
	p.rows = grow(p.rows, numDest)
	for d := range p.rows {
		lo, hi := destOff[d]*unit+d*headroom, destOff[d+1]*unit+(d+1)*headroom
		p.rows[d] = p.buf[lo:hi:hi]
	}
	return p.rows
}

// ParseScratch names where ParseKmers packs its output. A zero value is ready
// to use; reusing one across rounds removes all per-round allocation from the
// parse path. Rows returned by ParseKmers are views into Out (the scratch's
// own Packed when Out is nil) and are valid until the next call that packs
// into the same one.
type ParseScratch struct {
	// Out, when non-nil, receives the call's packed rows.
	Out *Packed[uint64]

	own Packed[uint64]
}

// ParseKmers is the GPU parse & process kernel of §III-B.1 (Fig. 2),
// implemented as the real GPU buffer-packing pattern: pass 1 cuts the
// concatenated base array into one position per thread, builds and hashes
// each k-mer (coalesced reads — consecutive threads read consecutive bases)
// and bumps a per-warp destination histogram in shared memory; an exclusive
// prefix sum over (warp × destination) then assigns every warp a private
// cursor range; pass 2 re-derives each position's k-mer and destination
// from the same bases and scatters it, contention-free, into one contiguous
// buffer partitioned by destination. No global atomics and no locks — the
// histogram lives in per-warp shared memory and the scatter slots are
// disjoint by construction.
//
// The device stages each position's key and destination between the passes,
// and the cost model still charges those stores and reloads; the host
// re-derives them instead, so all it holds between the passes is the
// histogram (see stagingSlot).
//
// The returned out[d] holds the packed k-mers bound for rank d behind
// cfg.Headroom words of room, as views into one contiguous arena (see
// ParseScratch; deterministic order: warp-major, then position). The headroom
// is host-side layout only: the simulated addresses the scatter charges are
// the headroom-free slots, so the stats do not depend on it. The returned
// stats aggregate all three launches; the pipeline prices them as one fused
// launch.
func ParseKmers(dev *gpusim.Device, cfg ParseConfig, data []byte, scr *ParseScratch) (out [][]uint64, st gpusim.KernelStats, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, st, err
	}
	if scr == nil {
		scr = &ParseScratch{}
	}
	threads := len(data) - cfg.K + 1
	if threads < 0 {
		threads = 0
	}
	ws := dev.Config().WarpSize
	nWarps := (threads + ws - 1) / ws
	numDest := cfg.NumDest

	stg := acquireStaging()
	defer releaseStaging(stg)
	stg.counts = growStaging(stg.counts, nWarps*numDest)
	stg.destOff = growStaging(stg.destOff, numDest+1)
	for i := range stg.counts {
		stg.counts[i] = 0
	}

	dataAddr := dev.Alloc(int64(len(data)))
	keysAddr := dev.Alloc(int64(8 * threads))
	destsAddr := dev.Alloc(int64(4 * threads))
	countsAddr := dev.Alloc(int64(4 * nWarps * numDest))
	bufAddr := dev.Alloc(int64(8 * threads))

	enc, k := cfg.Enc, cfg.K
	counts := stg.counts
	dev.ResetContention()

	// Pass 1: parse, hash, stage, histogram. The per-warp histogram bump is
	// a shared-memory increment (warp lanes execute sequentially within one
	// goroutine, so no synchronization is needed — the same privatization a
	// real kernel gets from shared memory plus warp-synchronous execution).
	st, err = dev.Launch(gpusim.LaunchSpec{Name: "parse_kmers", Threads: threads}, func(tid int, ctx *gpusim.Ctx) {
		// One overlapped read of the thread's k bases; warp lanes share
		// sectors, which is exactly the coalescing §III-B.1 engineers for.
		ctx.Read(dataAddr+uint64(tid), k)
		w, rolled := kmerAt(enc, data[tid:tid+k], cfg.Canonical)
		if rolled < k {
			// The window crosses a separator or an N: no k-mer here. Every
			// base up to and including the one that failed was encoded.
			ctx.Compute((rolled+1)*OpsEncodeBase + rolled*OpsKmerRoll)
			return
		}
		ctx.Compute(k * (OpsEncodeBase + OpsKmerRoll))
		if cfg.Canonical {
			ctx.Compute(k * OpsKmerRoll) // reverse-complement unrolled
		}
		ctx.Compute(OpsHash + OpsDestSelect)
		dest := DestOf(uint64(w), numDest)

		counts[(tid/ws)*numDest+dest]++
		ctx.Compute(OpsEmit) // shared-memory histogram bump
		// Coalesced staging stores of key and destination.
		ctx.Write(keysAddr+uint64(tid*8), 8)
		ctx.Write(destsAddr+uint64(tid*4), 4)
	})
	if err != nil {
		return nil, st, err
	}

	// Exclusive prefix sum over (warp × destination), destination-major, so
	// each destination's range is contiguous in the output arena — in place,
	// as on the device: every count becomes its warp's cursor. The host loop
	// computes the real offsets; the cost-model launch charges the device
	// price of the equivalent Blelloch scan.
	scanInPlace(counts, stg.destOff, nWarps)
	scanSt, err := dev.Launch(gpusim.LaunchSpec{Name: "scan_offsets", Threads: nWarps * numDest}, func(tid int, ctx *gpusim.Ctx) {
		ctx.Read(countsAddr+uint64(tid*4), 4)
		ctx.Compute(OpsScanStep)
		ctx.Write(countsAddr+uint64(tid*4), 4)
	})
	if err != nil {
		return nil, st, err
	}
	st.Add(scanSt)

	// Pass 2: contention-free scatter through the private cursors. A cursor
	// is a logical slot; destination d's part lies (d+1)·headroom words
	// further into the arena. The staged key and destination are reloaded
	// on the device's bill and rebuilt from the bases on the host's.
	packed := scr.Out
	if packed == nil {
		packed = &scr.own
	}
	headroom := cfg.Headroom
	out = packed.layout(stg.destOff, 1, headroom)
	outBuf, cursors := packed.buf, counts
	scatterSt, err := dev.Launch(gpusim.LaunchSpec{Name: "scatter_kmers", Threads: threads}, func(tid int, ctx *gpusim.Ctx) {
		ctx.Read(keysAddr+uint64(tid*8), 8)
		ctx.Read(destsAddr+uint64(tid*4), 4)
		w, rolled := kmerAt(enc, data[tid:tid+k], cfg.Canonical)
		if rolled < k {
			return // no k-mer at this position
		}
		d := DestOf(uint64(w), numDest)
		cur := (tid/ws)*numDest + d
		slot := cursors[cur]
		cursors[cur] = slot + 1
		outBuf[int(slot)+(d+1)*headroom] = uint64(w)
		ctx.Compute(OpsEmit) // cursor bump + slot math
		ctx.Write(bufAddr+uint64(slot)*8, 8)
	})
	if err != nil {
		return nil, st, err
	}
	st.Add(scatterSt)
	return out, st, nil
}

// kmerAt builds the k-mer of window win (k = len(win)), folded to its
// canonical form when asked — the one derivation both passes of ParseKmers
// use, without charging. rolled counts the bases rolled in: len(win) when
// the window holds a k-mer, else the index of the first base that does not
// encode.
func kmerAt(enc *dna.Encoding, win []byte, canonical bool) (w dna.Kmer, rolled int) {
	k := len(win)
	for i, ch := range win {
		code, ok := enc.Encode(ch)
		if !ok {
			return 0, i
		}
		w = w<<2 | dna.Kmer(code) // k ≤ 32 codes fill at most the word: no mask
	}
	if canonical {
		w = w.Canonical(enc, k)
	}
	return w, k
}

// scanInPlace turns the (warp × destination) histogram into its
// destination-major exclusive prefix sum, each count replaced by the first
// slot of its warp's range, and records every destination's range in destOff
// (numDest+1 entries).
func scanInPlace(counts []int32, destOff []int, nWarps int) {
	numDest := len(destOff) - 1
	total := 0
	for d := 0; d < numDest; d++ {
		destOff[d] = total
		for w := 0; w < nWarps; w++ {
			n := counts[w*numDest+d]
			counts[w*numDest+d] = int32(total)
			total += int(n)
		}
	}
	destOff[numDest] = total
}

// CountDests is a host-side helper mirroring the kernel's destination
// assignment: it returns per-destination k-mer counts for a batch of packed
// k-mers (used to size buffers and to compute Table III-style partition
// loads without running a device).
func CountDests(kmers []uint64, numDest int) []uint64 {
	counts := make([]uint64, numDest)
	for _, w := range kmers {
		counts[DestOf(w, numDest)]++
	}
	return counts
}
