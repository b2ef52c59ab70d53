package kernels

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"dedukt/internal/obs"
)

// stagingSlot is the host side of what a packing kernel keeps between its
// passes for the length of one call: the per-warp histogram the scan turns
// into cursors and, for BuildSupermers, pass 1's per-thread descriptors,
// which pass 2 reads back. Nothing in it is read after the kernel returns, so
// it belongs to the kernel in flight, not to the rank that might run one:
// ParseKmers and BuildSupermers take a slot from the process-wide pool on
// entry and return it on exit.
type stagingSlot struct {
	// BuildSupermers only: ParseKmers keeps nothing per position.
	descs  []superDesc // Window descriptors per thread
	nDescs []int32     // descriptors the thread emitted

	counts  []int32 // (warp × destination) histogram, then cursors
	destOff []int   // every destination's range in the output arena

	size int64 // bytes() at the slot's last return, under staging.mu
}

// bytes is the capacity the slot holds.
func (s *stagingSlot) bytes() int64 {
	return int64(cap(s.descs))*descBytes + int64(cap(s.nDescs))*4 +
		int64(cap(s.counts))*4 + int64(cap(s.destOff))*(bits.UintSize/8)
}

// growStaging is grow with an eighth to spare. The ranks of a run pass through
// the same few slots with inputs a few reads apart; an exact fit would
// reallocate the slot for every rank a little larger than the ones before.
func growStaging[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/8)
	}
	return s[:n]
}

// staging is the pool. At most GOMAXPROCS slots are out at once: every
// gpusim.Launch already fans out over all cores, so one more concurrent
// kernel buys memory, not parallelism, and a kernel that finds no slot free
// waits for one. The bound is read when a kernel asks, so it follows
// `go test -cpu` and runtime.GOMAXPROCS calls. A slot is only made when
// every existing one is out, so the slots held are also the most that were
// ever out together.
var staging struct {
	mu       sync.Mutex
	returned sync.Cond // signalled when a slot comes back; L is &mu
	free     []*stagingSlot
	out      int           // slots held by running kernels
	held     int64         // bytes of every slot, as measured at its last return
	peak     int64         // high-water mark of held
	wait     time.Duration // total time kernels spent waiting for a slot
}

func init() { staging.returned.L = &staging.mu }

// acquireStaging takes a slot, waiting while GOMAXPROCS are out. The slot's
// buffers keep whatever an earlier kernel left in them.
func acquireStaging() *stagingSlot {
	st := &staging
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.out >= runtime.GOMAXPROCS(0) {
		t0 := time.Now()
		for st.out >= runtime.GOMAXPROCS(0) {
			st.returned.Wait()
		}
		st.wait += time.Since(t0)
	}
	st.out++
	n := len(st.free)
	if n == 0 {
		return &stagingSlot{}
	}
	s := st.free[n-1]
	st.free = st.free[:n-1]
	return s
}

// releaseStaging gives a slot back, measures what it has grown to, and wakes
// one waiting kernel. Slots beyond the bound (GOMAXPROCS was lowered) are
// dropped.
func releaseStaging(s *stagingSlot) {
	st := &staging
	st.mu.Lock()
	defer st.mu.Unlock()
	st.out--
	size := s.bytes()
	st.held += size - s.size
	s.size = size
	st.peak = max(st.peak, st.held)
	st.free = append(st.free, s)
	for n := len(st.free); n > 0 && st.out+n > runtime.GOMAXPROCS(0); n-- {
		st.held -= st.free[n-1].size
		st.free[n-1] = nil
		st.free = st.free[:n-1]
	}
	st.returned.Signal()
}

// StagingStats describes the staging pool of the packing kernels.
type StagingStats struct {
	// Slots is the number of slots the pool holds, free or out.
	Slots int
	// PeakBytes is the most the slots' buffers have held together. A slot is
	// measured when it comes back, so the figure is complete whenever no
	// kernel is running.
	PeakBytes int64
	// Wait is the total time kernels spent waiting for a slot.
	Wait time.Duration
}

// Staging returns the pool's current figures.
func Staging() StagingStats {
	st := &staging
	st.mu.Lock()
	defer st.mu.Unlock()
	return StagingStats{Slots: st.out + len(st.free), PeakBytes: st.peak, Wait: st.wait}
}

// ObserveStaging publishes the pool's figures in reg, read at exposition
// time. The pool is process-wide, so every registry shows the same values.
func ObserveStaging(reg *obs.Registry) {
	reg.GaugeFunc("kernels_staging_bytes", "High-water bytes held by the packing kernels' staging slots.",
		func() float64 { return float64(Staging().PeakBytes) })
	reg.GaugeFunc("kernels_staging_slots", "Staging slots the packing kernels hold, free or in use (at most GOMAXPROCS).",
		func() float64 { return float64(Staging().Slots) })
	reg.GaugeFunc("kernels_staging_wait_seconds_total", "Seconds packing kernels spent waiting for a staging slot.",
		func() float64 { return Staging().Wait.Seconds() })
}
