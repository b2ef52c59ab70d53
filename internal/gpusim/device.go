package gpusim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dedukt/internal/obs"
)

// Device executes kernels under a Config.
type Device struct {
	cfg Config
	// contention is a hashed per-address atomic-op counter (single-row
	// count-min sketch). The max bucket is a deterministic upper bound on
	// the per-address maximum, used for the hotspot roofline term. A bucket
	// is 32 bits: exact while the launches between two ResetContention calls
	// aim fewer than 2³² atomics at one bucket.
	contention []uint32
	arenaNext  uint64
	// reg, when set via Observe, receives per-kernel efficiency counters
	// after every launch.
	reg *obs.Registry
	// scratch pools per-worker launch state (lane recorders and fold
	// buffers) across launches. Multi-round pipelines launch the same
	// kernels dozens of times; without the pool every launch re-grows each
	// lane's access log from nil, which dominated the streamed pipeline's
	// allocation profile.
	scratch sync.Pool
}

// contentionBuckets is the sketch width. Counter-style hot addresses (a few
// hundred buffer tails) essentially never collide at this width, and table
// slots are individually cold, so the bound stays tight. The width is kept
// modest (256 KiB per device) because large simulations instantiate one
// device per simulated rank.
const contentionBuckets = 1 << 16

// NewDevice validates cfg and returns a Device.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{cfg: cfg, contention: make([]uint32, contentionBuckets), arenaNext: 1 << 12}, nil
}

// MustDevice is NewDevice for known-good configs; it panics on error.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Observe attaches a metrics registry: every subsequent Launch publishes
// its kernel stats (launches, divergence-adjusted and raw ops, memory
// transactions, atomics) as counters labeled by kernel name. Set before
// launching; a nil registry detaches.
func (d *Device) Observe(reg *obs.Registry) { d.reg = reg }

// publishStats records one launch's stats into the attached registry.
func (d *Device) publishStats(s *KernelStats) {
	if d.reg == nil {
		return
	}
	kernel := obs.L("kernel", s.Name)
	d.reg.Counter("gpusim_kernel_launches_total", "Kernel launches by kernel name.", kernel).Inc()
	d.reg.Counter("gpusim_compute_ops_total", "Divergence-adjusted compute ops (max lane per warp × warp size).", kernel).Add(s.ComputeOps)
	d.reg.Counter("gpusim_raw_compute_ops_total", "Per-lane compute ops before the divergence charge.", kernel).Add(s.RawComputeOps)
	d.reg.Counter("gpusim_mem_transactions_total", "32-byte memory sectors moved after warp coalescing.", kernel).Add(s.MemTransactions)
	d.reg.Counter("gpusim_atomic_ops_total", "Atomic operations issued.", kernel).Add(s.AtomicOps)
}

// Alloc reserves a 256-byte-aligned simulated device address range of the
// given size and returns its base address. Kernels use these addresses when
// recording accesses so coalescing analysis sees realistic layouts.
func (d *Device) Alloc(bytes int64) uint64 {
	if bytes < 0 {
		panic("gpusim: negative allocation")
	}
	size := (uint64(bytes) + 255) &^ 255
	end := atomic.AddUint64(&d.arenaNext, size)
	return end - size
}

// accessKind distinguishes recorded operations.
type accessKind uint8

const (
	accRead accessKind = iota
	accWrite
	accAtomic
)

type access struct {
	kind accessKind
	addr uint64
	size uint32
}

// Ctx is the per-thread recorder handed to kernel bodies. It is only valid
// during the call.
type Ctx struct {
	tid      int
	ops      uint64
	accesses []access
}

// TID returns the global thread index.
func (c *Ctx) TID() int { return c.tid }

// Compute records n abstract arithmetic/logic operations.
func (c *Ctx) Compute(n int) { c.ops += uint64(n) }

// Read records a global-memory load of size bytes at addr.
func (c *Ctx) Read(addr uint64, size int) {
	c.accesses = append(c.accesses, access{accRead, addr, uint32(size)})
}

// Write records a global-memory store.
func (c *Ctx) Write(addr uint64, size int) {
	c.accesses = append(c.accesses, access{accWrite, addr, uint32(size)})
}

// Atomic records an atomic read-modify-write at addr (e.g. atomicAdd on an
// outgoing-buffer tail, or atomicCAS on a hash-table slot).
func (c *Ctx) Atomic(addr uint64, size int) {
	c.accesses = append(c.accesses, access{accAtomic, addr, uint32(size)})
}

// LaunchSpec describes kernel geometry.
type LaunchSpec struct {
	// Name labels the kernel in stats.
	Name string
	// Threads is the total logical thread count (grid × block).
	Threads int
	// BlockSize is threads per block; 0 defaults to 256.
	BlockSize int
}

// Launch executes body for every thread of the spec and returns aggregated
// stats. Bodies run with real effects (they may write Go memory; use
// sync/atomic for shared state). Warps execute their lanes sequentially
// inside one goroutine; distinct warps may run on different goroutines, so
// cross-thread coordination other than atomics must not be assumed — the
// same portability rule a real CUDA grid imposes.
func (d *Device) Launch(spec LaunchSpec, body func(tid int, ctx *Ctx)) (KernelStats, error) {
	if spec.Threads < 0 {
		return KernelStats{}, fmt.Errorf("gpusim: negative thread count %d", spec.Threads)
	}
	block := spec.BlockSize
	if block == 0 {
		block = 256
	}
	if block <= 0 || block%d.cfg.WarpSize != 0 {
		return KernelStats{}, fmt.Errorf("gpusim: block size %d not a positive multiple of warp size %d", block, d.cfg.WarpSize)
	}
	stats := KernelStats{
		Name:    spec.Name,
		Threads: spec.Threads,
		Blocks:  (spec.Threads + block - 1) / block,
	}
	ws := d.cfg.WarpSize
	nWarps := (spec.Threads + ws - 1) / ws

	workers := runtime.GOMAXPROCS(0)
	if workers > nWarps {
		workers = nWarps
	}
	if workers < 1 {
		workers = 1
	}
	partials := make([]KernelStats, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[slot] = fmt.Errorf("gpusim: kernel %q panicked: %v", spec.Name, p)
				}
			}()
			sc := d.getScratch(ws)
			defer d.scratch.Put(sc)
			lanes := sc.lanes
			fs := &sc.fs
			for {
				warp := int(next.Add(1)) - 1
				if warp >= nWarps {
					return
				}
				lo := warp * ws
				hi := lo + ws
				if hi > spec.Threads {
					hi = spec.Threads
				}
				for i := range lanes {
					lanes[i].ops = 0
					lanes[i].accesses = lanes[i].accesses[:0]
				}
				for tid := lo; tid < hi; tid++ {
					lane := &lanes[tid-lo]
					lane.tid = tid
					body(tid, lane)
				}
				d.foldWarp(&partials[slot], lanes[:hi-lo], fs)
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return stats, e
		}
	}
	for i := range partials {
		stats.Add(partials[i]) // partials carry zero geometry, only work counters
	}
	// Hotspot bound from the contention sketch.
	var maxBucket uint32
	for _, c := range d.contention {
		if c > maxBucket {
			maxBucket = c
		}
	}
	if uint64(maxBucket) > stats.MaxAtomicPerAddr {
		stats.MaxAtomicPerAddr = uint64(maxBucket)
	}
	d.publishStats(&stats)
	return stats, nil
}

// ResetContention clears the hotspot sketch (between kernels whose atomics
// target different structures).
func (d *Device) ResetContention() {
	for i := range d.contention {
		d.contention[i] = 0
	}
}

// foldScratch holds one worker's reusable replay buffers for foldWarp.
type foldScratch struct {
	sectors []uint64
	atomics []uint64
	set     addrSet
}

// workerScratch is one launch worker's pooled state: the warp's lane
// recorders (whose access logs keep their grown capacity between launches)
// and the fold buffers.
type workerScratch struct {
	lanes []Ctx
	fs    foldScratch
}

// getScratch takes a worker scratch from the pool, allocating a fresh one
// on first use (or if the warp size ever changed, which it cannot for one
// device).
func (d *Device) getScratch(ws int) *workerScratch {
	if sc, ok := d.scratch.Get().(*workerScratch); ok && len(sc.lanes) == ws {
		return sc
	}
	return &workerScratch{
		lanes: make([]Ctx, ws),
		fs: foldScratch{
			sectors: make([]uint64, 0, ws*2),
			atomics: make([]uint64, 0, ws),
		},
	}
}

// foldWarp applies lockstep coalescing to one warp's recorded lanes and
// accumulates into st. fs provides reusable scratch owned by the caller.
func (d *Device) foldWarp(st *KernelStats, lanes []Ctx, fs *foldScratch) {
	// Divergence-adjusted compute: warps execute the union of their lanes'
	// paths, so every lane pays for the longest lane.
	var maxOps uint64
	maxAcc := 0
	for i := range lanes {
		st.RawComputeOps += lanes[i].ops
		if lanes[i].ops > maxOps {
			maxOps = lanes[i].ops
		}
		if len(lanes[i].accesses) > maxAcc {
			maxAcc = len(lanes[i].accesses)
		}
	}
	st.ComputeOps += maxOps * uint64(d.cfg.WarpSize)

	// Lockstep memory replay: the i-th access of each lane coalesces into
	// distinct 32-byte sectors. Atomics within one warp step aimed at the
	// same address are warp-aggregated into a single device atomic (the
	// standard nvcc/libcu++ optimization), so both the atomic throughput
	// term and the contention sketch see distinct addresses per step.
	sectors, atomics := fs.sectors, fs.atomics
	for step := 0; step < maxAcc; step++ {
		sectors = sectors[:0]
		atomics = atomics[:0]
		for i := range lanes {
			if step >= len(lanes[i].accesses) {
				continue // lane inactive at this step (divergence)
			}
			a := lanes[i].accesses[step]
			st.MemBytesRequested += uint64(a.size)
			first := a.addr / SectorBytes
			last := (a.addr + uint64(a.size) - 1) / SectorBytes
			for s := first; s <= last; s++ {
				sectors = append(sectors, s)
			}
			if a.kind == accAtomic {
				atomics = append(atomics, a.addr)
			}
		}
		// Both consumers want each distinct value once, in no particular
		// order: the sketch's adds commute and sectors are only counted.
		for _, addr := range fs.set.distinct(atomics) { // repeats are warp-aggregated
			st.AtomicOps++
			b := mixAddr(addr) % contentionBuckets
			atomic.AddUint32(&d.contention[b], 1)
		}
		st.MemTransactions += uint64(len(fs.set.distinct(sectors)))
	}
	// Keep any growth (wide multi-sector accesses) for the next warp.
	fs.sectors, fs.atomics = sectors, atomics
}

// addrSet is a fixed-size open-addressing set of addresses, one worker's
// scratch for reducing a warp step's scattered accesses to the distinct
// ones. A used bit per slot makes emptying it two words' work, whatever the
// keys hold.
type addrSet struct {
	keys [addrSetSlots]uint64
	used [addrSetSlots / 64]uint64
}

// addrSetSlots is the set's size; distinct keeps it at most half full. A step
// of one-sector accesses is WarpSize values, one whose accesses straddle a
// sector boundary twice that.
const (
	addrSetBits  = 8
	addrSetSlots = 1 << addrSetBits
)

// add inserts v and reports whether it was absent.
func (s *addrSet) add(v uint64) bool {
	for i := (v * 0x9e3779b97f4a7c15) >> (64 - addrSetBits); ; i = (i + 1) % addrSetSlots {
		word, bit := &s.used[i/64], uint64(1)<<(i%64)
		if *word&bit == 0 {
			*word |= bit
			s.keys[i] = v
			return true
		}
		if s.keys[i] == v {
			return false
		}
	}
}

// distinct compacts a in place to its distinct values, in unspecified order.
// A non-decreasing step — every coalesced access — is one pass with no set
// and no sort; a scattered one goes through the set, or through the sort when
// it holds more values than the set takes.
func (s *addrSet) distinct(a []uint64) []uint64 {
	if len(a) == 0 {
		return a
	}
	n, i := 1, 1 // a[:n] is distinct and ascending, a[i:] is unseen
	for ; i < len(a) && a[i] >= a[n-1]; i++ {
		if a[i] > a[n-1] {
			a[n] = a[i]
			n++
		}
	}
	if i == len(a) {
		return a[:n]
	}
	if rest := len(a) - i; n+rest > addrSetSlots/2 {
		a = a[:n+copy(a[n:], a[i:])]
		sortU64(a)
		return s.distinct(a)
	}
	s.used = [len(s.used)]uint64{}
	for _, v := range a[:n] {
		s.add(v)
	}
	for _, v := range a[i:] {
		if s.add(v) {
			a[n] = v
			n++
		}
	}
	return a[:n]
}

// sortU64 is an allocation-free insertion sort for the per-step sector/atomic
// slices too long for the addrSet (wide multi-sector accesses).
func sortU64(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// mixAddr scrambles an address into the sketch index space.
func mixAddr(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
