package kernels

import (
	"fmt"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/minimizer"
)

// SupermerConfig parameterizes the supermer construction kernel.
type SupermerConfig struct {
	// Enc is the 2-bit base encoding (dna.Random reproduces the paper's
	// ordering when paired with minimizer.Value).
	Enc *dna.Encoding
	// C carries k, m, window and the minimizer ordering.
	C minimizer.Config
	// NumDest is the number of destination ranks.
	NumDest int
	// DestMap, when non-nil, overrides hash partitioning: the supermer
	// with minimizer w goes to rank DestMap[w]. It must have 4^m entries
	// with every value < NumDest (the balanced assignment of §VII's
	// future work). When nil, destinations come from DestOf.
	DestMap []uint16
	// Headroom is the number of bytes left unwritten ahead of each
	// destination's part in the returned rows (see ParseConfig.Headroom; the
	// byte frame header is ByteFrameHeader).
	Headroom int
}

// Validate checks the configuration.
func (c SupermerConfig) Validate() error {
	if c.Enc == nil {
		return fmt.Errorf("kernels: nil encoding")
	}
	if err := c.C.Validate(); err != nil {
		return err
	}
	if c.NumDest <= 0 || c.NumDest > 1<<16 {
		return fmt.Errorf("kernels: NumDest=%d outside (0,%d]", c.NumDest, 1<<16)
	}
	if c.Headroom < 0 {
		return fmt.Errorf("kernels: Headroom=%d", c.Headroom)
	}
	if c.DestMap != nil {
		if len(c.DestMap) != 1<<(2*uint(c.C.M)) {
			return fmt.Errorf("kernels: DestMap has %d entries, want 4^%d", len(c.DestMap), c.C.M)
		}
	}
	return (SupermerWire{K: c.C.K, Window: c.C.Window}).Validate()
}

// superDesc describes one supermer found by the descriptor pass, packed
// into one 4-byte word: nk k-mers whose bases start off positions into the
// owning thread's chunk (at data[tid·Window+off]), bound for rank dest. A
// thread owns Window ≤ 255 positions (SupermerWire.Validate) and NumDest is
// at most 65536 (SupermerConfig.Validate), so every field fits.
type superDesc struct {
	off  uint8
	nk   uint8
	dest uint16
}

// descBytes is the descriptor's size on the device.
const descBytes = 4

// SupermerScratch names where BuildSupermers packs its output. A zero value
// is ready to use. Rows returned by BuildSupermers are views into Out (the
// scratch's own Packed when Out is nil) and are valid until the next call
// that packs into the same one.
type SupermerScratch struct {
	// Out, when non-nil, receives the call's packed rows.
	Out *Packed[byte]

	own Packed[byte]
}

// BuildSupermers is the GPU supermer kernel of §IV-B (Fig. 5, Alg. 2),
// implemented with the same count/scan/scatter buffer scheme as ParseKmers:
// pass 1 cuts the k-mer start positions into chunks of Window, one thread
// per chunk; each thread sequentially rolls through its k-mers, computes
// each k-mer's minimizer in registers, extends the current supermer while
// the minimizer repeats, and records completed supermers as descriptors
// while bumping a per-warp destination histogram. After an exclusive prefix
// sum assigns cursor ranges, pass 2 packs each supermer's bases directly
// into its wire-format slot (packed bases + length byte) in one contiguous
// buffer partitioned by destination — no global atomics, no locks, no
// intermediate sequence objects.
//
// The returned out[d] holds rank d's wire images behind cfg.Headroom bytes of
// room; like ParseKmers' headroom it is host-side layout only and moves no
// simulated address. The emitted supermers are exactly those of
// minimizer.BuildWindowed over the same buffer — the property tests rely on
// this equivalence.
func BuildSupermers(dev *gpusim.Device, cfg SupermerConfig, data []byte, scr *SupermerScratch) (out [][]byte, st gpusim.KernelStats, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, st, err
	}
	if scr == nil {
		scr = &SupermerScratch{}
	}
	k, m, window, ord := cfg.C.K, cfg.C.M, cfg.C.Window, cfg.C.Ord
	wire := SupermerWire{K: k, Window: window}
	stride := wire.Stride()

	positions := len(data) - k + 1
	if positions < 0 {
		positions = 0
	}
	threads := (positions + window - 1) / window
	ws := dev.Config().WarpSize
	nWarps := (threads + ws - 1) / ws
	numDest := cfg.NumDest

	// A thread owns Window k-mer positions, so it can emit at most Window
	// supermers (each holds ≥ 1 k-mer).
	stg := acquireStaging()
	defer releaseStaging(stg)
	stg.descs = growStaging(stg.descs, threads*window)
	stg.nDescs = growStaging(stg.nDescs, threads)
	stg.counts = growStaging(stg.counts, nWarps*numDest)
	stg.destOff = growStaging(stg.destOff, numDest+1)
	for i := range stg.counts {
		stg.counts[i] = 0
	}

	dataAddr := dev.Alloc(int64(len(data)))
	descsAddr := dev.Alloc(int64(descBytes * threads * window))
	countsAddr := dev.Alloc(int64(4 * nWarps * numDest))
	mapAddr := uint64(0)
	if cfg.DestMap != nil {
		mapAddr = dev.Alloc(int64(2 * len(cfg.DestMap)))
	}
	bufAddr := dev.Alloc(int64(stride * (positions + 1)))

	enc := cfg.Enc
	descs, nDescs, counts := stg.descs, stg.nDescs, stg.counts
	dev.ResetContention()

	// Pass 1: roll minimizers, emit descriptors, build the per-warp
	// destination histogram in shared memory.
	st, err = dev.Launch(gpusim.LaunchSpec{Name: "build_supermers", Threads: threads}, func(tid int, ctx *gpusim.Ctx) {
		nDescs[tid] = 0
		lo := tid * window // first k-mer start position owned
		hi := lo + window  // one past the last owned position
		if hi > positions {
			hi = positions
		}
		// One read covers the thread's whole chunk of bases.
		span := hi - lo + k - 1
		ctx.Read(dataAddr+uint64(lo), span)

		var (
			w       dna.Kmer
			valid   int
			open    bool
			start0  int
			curMin  dna.Kmer
			nk      int
			lastPos int
		)
		flush := func() {
			if !open {
				return
			}
			open = false
			var dest int
			if cfg.DestMap != nil {
				// Table-driven destination: one small scattered load.
				ctx.Read(mapAddr+uint64(curMin)*2, 2)
				ctx.Compute(OpsEmit)
				dest = int(cfg.DestMap[curMin])
			} else {
				ctx.Compute(OpsHash + OpsDestSelect + OpsEmit)
				dest = DestOf(uint64(curMin), cfg.NumDest)
			}
			i := nDescs[tid]
			descs[tid*window+int(i)] = superDesc{off: uint8(start0 - lo), nk: uint8(nk), dest: uint16(dest)}
			nDescs[tid] = i + 1
			counts[(tid/ws)*numDest+dest]++
			ctx.Compute(OpsEmit) // shared-memory histogram bump
			// Coalesced staging store of the descriptor.
			ctx.Write(descsAddr+uint64((tid*window+int(i))*descBytes), descBytes)
		}
		// Roll bases from the chunk start; k-mers whose start lies in
		// [lo, hi) are owned by this thread.
		for p := lo; p < hi+k-1 && p < len(data); p++ {
			code, ok := enc.Encode(data[p])
			ctx.Compute(OpsEncodeBase)
			if !ok {
				valid = 0
				flush()
				continue
			}
			w = w.Append(k, code)
			ctx.Compute(OpsKmerRoll)
			valid++
			if valid < k {
				continue
			}
			pos := p - k + 1
			if pos < lo || pos >= hi {
				continue
			}
			ctx.Compute((k - m + 1) * OpsMinimizerCand)
			min := minimizer.Of(w, k, m, ord)
			if open && pos == lastPos+1 && min == curMin {
				nk++
				lastPos = pos
				continue
			}
			flush()
			open = true
			start0 = pos
			curMin = min
			nk = 1
			lastPos = pos
		}
		flush()
	})
	if err != nil {
		return nil, st, err
	}

	// Exclusive prefix sum over (warp × destination), destination-major, in
	// place: the counts become the cursors.
	scanInPlace(counts, stg.destOff, nWarps, 1)
	scanSt, err := dev.Launch(gpusim.LaunchSpec{Name: "scan_offsets", Threads: nWarps * numDest}, func(tid int, ctx *gpusim.Ctx) {
		ctx.Read(countsAddr+uint64(tid*4), 4)
		ctx.Compute(OpsScanStep)
		ctx.Write(countsAddr+uint64(tid*4), 4)
	})
	if err != nil {
		return nil, st, err
	}
	st.Add(scanSt)

	// Pass 2: pack each supermer's bases straight into its wire slot. A
	// cursor is a logical slot; destination d's part lies (d+1)·headroom
	// bytes further into the arena.
	packed := scr.Out
	if packed == nil {
		packed = &scr.own
	}
	headroom := cfg.Headroom
	out = packed.layout(stg.destOff, stride, headroom)
	outBuf, cursors := packed.buf, counts
	scatterSt, err := dev.Launch(gpusim.LaunchSpec{Name: "scatter_supermers", Threads: threads}, func(tid int, ctx *gpusim.Ctx) {
		n := int(nDescs[tid])
		for i := 0; i < n; i++ {
			ctx.Read(descsAddr+uint64((tid*window+i)*descBytes), descBytes)
			d := descs[tid*window+i]
			start := tid*window + int(d.off)
			cur := (tid/ws)*numDest + int(d.dest)
			slot := int(cursors[cur])
			cursors[cur] = int32(slot + 1)
			off := slot * stride
			at := off + (int(d.dest)+1)*headroom
			img := outBuf[at : at+stride]
			for b := range img {
				img[b] = 0
			}
			nBases := int(d.nk) + k - 1
			ctx.Read(dataAddr+uint64(start), nBases)
			for b := 0; b < nBases; b++ {
				code := enc.MustEncode(data[start+b])
				img[b/4] |= byte(code&3) << (2 * uint(b%4))
			}
			ctx.Compute(OpsPackBase * nBases)
			img[stride-1] = d.nk
			ctx.Compute(OpsEmit)
			ctx.Write(bufAddr+uint64(off), stride)
		}
	})
	if err != nil {
		return nil, st, err
	}
	st.Add(scatterSt)
	return out, st, nil
}
