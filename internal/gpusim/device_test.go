package gpusim

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(V100())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	if err := V100().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := V100()
	bad.NumSMs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("NumSMs=0 should fail")
	}
	bad = V100()
	bad.HBMBandwidthGBs = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative bandwidth should fail")
	}
	if _, err := NewDevice(bad); err == nil {
		t.Fatal("NewDevice must validate")
	}
}

func TestLaunchRunsEveryThread(t *testing.T) {
	d := testDevice(t)
	const n = 1000
	var hits [n]int32
	_, err := d.Launch(LaunchSpec{Name: "touch", Threads: n}, func(tid int, ctx *Ctx) {
		atomic.AddInt32(&hits[tid], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("thread %d ran %d times", i, h)
		}
	}
}

func TestLaunchGeometry(t *testing.T) {
	d := testDevice(t)
	st, err := d.Launch(LaunchSpec{Name: "g", Threads: 1000, BlockSize: 128}, func(int, *Ctx) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.Blocks != 8 { // ceil(1000/128)
		t.Fatalf("Blocks = %d, want 8", st.Blocks)
	}
	if st.Threads != 1000 {
		t.Fatalf("Threads = %d", st.Threads)
	}
	if _, err := d.Launch(LaunchSpec{Threads: 10, BlockSize: 100}, func(int, *Ctx) {}); err == nil {
		t.Fatal("non-multiple block size should fail")
	}
	if _, err := d.Launch(LaunchSpec{Threads: -1}, func(int, *Ctx) {}); err == nil {
		t.Fatal("negative threads should fail")
	}
}

func TestCoalescedAccessOneWarpFourSectors(t *testing.T) {
	// 32 lanes reading consecutive 4-byte words span 128 bytes = 4 sectors.
	d := testDevice(t)
	base := d.Alloc(1 << 12)
	st, err := d.Launch(LaunchSpec{Name: "coal", Threads: 32}, func(tid int, ctx *Ctx) {
		ctx.Read(base+uint64(tid*4), 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MemTransactions != 4 {
		t.Fatalf("coalesced warp read = %d transactions, want 4", st.MemTransactions)
	}
	if st.MemBytesRequested != 128 {
		t.Fatalf("requested = %d bytes", st.MemBytesRequested)
	}
}

func TestStridedAccessUncoalesced(t *testing.T) {
	// 32 lanes reading 4 bytes each, 256 bytes apart: 32 distinct sectors.
	d := testDevice(t)
	base := d.Alloc(1 << 16)
	st, err := d.Launch(LaunchSpec{Name: "stride", Threads: 32}, func(tid int, ctx *Ctx) {
		ctx.Read(base+uint64(tid*256), 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MemTransactions != 32 {
		t.Fatalf("strided warp read = %d transactions, want 32", st.MemTransactions)
	}
	if eff := st.CoalescingEfficiency(); eff > 0.2 {
		t.Fatalf("strided efficiency %.2f should be poor", eff)
	}
}

func TestAccessSpanningTwoSectors(t *testing.T) {
	d := testDevice(t)
	base := d.Alloc(1 << 10) // 256-aligned, so base+30 straddles a boundary
	st, err := d.Launch(LaunchSpec{Name: "span", Threads: 1}, func(tid int, ctx *Ctx) {
		ctx.Read(base+30, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.MemTransactions != 2 {
		t.Fatalf("straddling read = %d transactions, want 2", st.MemTransactions)
	}
}

func TestDivergenceAccounting(t *testing.T) {
	d := testDevice(t)
	// Half the warp does 100 ops, half does 10: warp pays 100×32.
	st, err := d.Launch(LaunchSpec{Name: "div", Threads: 32}, func(tid int, ctx *Ctx) {
		if tid%2 == 0 {
			ctx.Compute(100)
		} else {
			ctx.Compute(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ComputeOps != 100*32 {
		t.Fatalf("ComputeOps = %d, want 3200", st.ComputeOps)
	}
	if st.RawComputeOps != 16*100+16*10 {
		t.Fatalf("RawComputeOps = %d", st.RawComputeOps)
	}
	if w := st.DivergenceWaste(); w < 1.5 {
		t.Fatalf("divergence waste %.2f, want ≈1.8", w)
	}
}

func TestAtomicHotspotTracking(t *testing.T) {
	d := testDevice(t)
	base := d.Alloc(1024)
	const n = 4096
	const warps = n / 32
	st, err := d.Launch(LaunchSpec{Name: "hot", Threads: n}, func(tid int, ctx *Ctx) {
		ctx.Atomic(base, 4) // everyone hammers one counter
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same-address atomics within a warp step are warp-aggregated: one
	// device atomic per warp.
	if st.AtomicOps != warps {
		t.Fatalf("AtomicOps = %d, want %d (warp-aggregated)", st.AtomicOps, warps)
	}
	if st.MaxAtomicPerAddr < warps {
		t.Fatalf("MaxAtomicPerAddr = %d, want ≥ %d", st.MaxAtomicPerAddr, warps)
	}

	// After reset, spread atomics show low contention.
	d.ResetContention()
	st2, err := d.Launch(LaunchSpec{Name: "cold", Threads: n}, func(tid int, ctx *Ctx) {
		ctx.Atomic(base+uint64(tid*64), 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.MaxAtomicPerAddr > 4 {
		t.Fatalf("spread atomics contention %d, want small", st2.MaxAtomicPerAddr)
	}
}

// TestAtomicHotspotExact has n threads aim one atomic each at one address,
// every lane at its own warp step so none is warp-aggregated, and reads the
// sketch's bound back as exactly n — on a fresh device, and on the same
// device after ResetContention has zeroed what the first launch left.
func TestAtomicHotspotExact(t *testing.T) {
	d := testDevice(t)
	ws := d.Config().WarpSize
	base := d.Alloc(int64(4 * ws))
	const n = 5000
	hammer := func() KernelStats {
		st, err := d.Launch(LaunchSpec{Name: "hammer", Threads: n}, func(tid int, ctx *Ctx) {
			for i := 0; i < tid%ws; i++ {
				ctx.Read(base+uint64(4*i), 4) // delays the atomic to step tid%ws
			}
			ctx.Atomic(base, 4)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := hammer(); st.AtomicOps != n || st.MaxAtomicPerAddr != n {
		t.Fatalf("fresh device: %d atomics, max %d per address; want %d and %d", st.AtomicOps, st.MaxAtomicPerAddr, n, n)
	}
	d.ResetContention()
	if st := hammer(); st.AtomicOps != n || st.MaxAtomicPerAddr != n {
		t.Fatalf("reused device: %d atomics, max %d per address; want %d and %d", st.AtomicOps, st.MaxAtomicPerAddr, n, n)
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	cfg := V100()
	// Memory-bound stats: time ≈ sectors×32/BW, derated by the calibrated
	// sustained fraction.
	st := &KernelStats{MemTransactions: 1 << 20}
	want := float64(uint64(1<<20)*SectorBytes) / (cfg.HBMBandwidthGBs * 1e9) / cfg.SustainedFraction
	got := cfg.KernelTime(st).Seconds()
	if got < want || got > want+cfg.LaunchOverheadUs*1e-6*2 {
		t.Fatalf("memory-bound time %.3e, want ≈%.3e", got, want)
	}
	// An uncalibrated config (SustainedFraction unset) runs at the roofline.
	raw := cfg
	raw.SustainedFraction = 0
	wantRaw := float64(uint64(1<<20)*SectorBytes) / (cfg.HBMBandwidthGBs * 1e9)
	gotRaw := raw.KernelTime(st).Seconds()
	if gotRaw < wantRaw || gotRaw > wantRaw+cfg.LaunchOverheadUs*1e-6*2 {
		t.Fatalf("roofline time %.3e, want ≈%.3e", gotRaw, wantRaw)
	}
	// Adding compute below the roofline must not change time.
	st2 := *st
	st2.ComputeOps = 1000
	if cfg.KernelTime(&st2) != cfg.KernelTime(st) {
		t.Fatal("sub-roofline compute changed kernel time")
	}
	// Dominating hotspot must raise it.
	st3 := *st
	st3.MaxAtomicPerAddr = 1 << 30
	if cfg.KernelTime(&st3) <= cfg.KernelTime(st) {
		t.Fatal("hotspot term ignored")
	}
}

func TestKernelTimeMonotonic(t *testing.T) {
	cfg := V100()
	small := &KernelStats{ComputeOps: 1 << 20, MemTransactions: 1 << 10}
	big := &KernelStats{ComputeOps: 1 << 30, MemTransactions: 1 << 10}
	if cfg.KernelTime(big) <= cfg.KernelTime(small) {
		t.Fatal("more compute should cost more")
	}
}

func TestTransferTime(t *testing.T) {
	cfg := V100()
	t0 := cfg.TransferTime(0)
	if t0 < time.Duration(cfg.LinkLatencyUs*1000)*time.Nanosecond {
		t.Fatal("zero-byte transfer should still pay latency")
	}
	oneGB := cfg.TransferTime(1 << 30)
	if oneGB.Seconds() < 1.0/cfg.LinkGBs*0.9 {
		t.Fatalf("1 GiB transfer %.4fs too fast", oneGB.Seconds())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative size should panic")
		}
	}()
	cfg.TransferTime(-1)
}

func TestAllocDisjointAligned(t *testing.T) {
	d := testDevice(t)
	a := d.Alloc(100)
	b := d.Alloc(300)
	c := d.Alloc(1)
	if a%256 != 0 || b%256 != 0 || c%256 != 0 {
		t.Fatal("allocations not 256-aligned")
	}
	if b < a+100 || c < b+300 {
		t.Fatal("allocations overlap")
	}
}

func TestStatsAdd(t *testing.T) {
	a := KernelStats{ComputeOps: 1, RawComputeOps: 1, MemTransactions: 2, MemBytesRequested: 3, AtomicOps: 4, MaxAtomicPerAddr: 5}
	b := KernelStats{ComputeOps: 10, RawComputeOps: 10, MemTransactions: 20, MemBytesRequested: 30, AtomicOps: 40, MaxAtomicPerAddr: 2}
	a.Add(b)
	if a.ComputeOps != 11 || a.MemTransactions != 22 || a.MemBytesRequested != 33 || a.AtomicOps != 44 {
		t.Fatalf("Add result %+v", a)
	}
	if a.MaxAtomicPerAddr != 5 {
		t.Fatalf("MaxAtomicPerAddr = %d, want max not sum", a.MaxAtomicPerAddr)
	}
}

func TestLaunchDeterministicStats(t *testing.T) {
	// Stats must not depend on warp scheduling order.
	run := func() KernelStats {
		d := testDevice(t)
		base := d.Alloc(1 << 20)
		st, err := d.Launch(LaunchSpec{Name: "det", Threads: 10_000}, func(tid int, ctx *Ctx) {
			ctx.Compute(tid % 7)
			ctx.Read(base+uint64(tid*8), 8)
			if tid%3 == 0 {
				ctx.Atomic(base, 4)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats differ across runs:\n%+v\n%+v", a, b)
	}
}

func TestLaunchKernelEffectsReal(t *testing.T) {
	// Kernel bodies compute real results: parallel sum via atomics.
	d := testDevice(t)
	var sum atomic.Int64
	const n = 5000
	_, err := d.Launch(LaunchSpec{Name: "sum", Threads: n}, func(tid int, ctx *Ctx) {
		sum.Add(int64(tid))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != n*(n-1)/2 {
		t.Fatalf("sum = %d, want %d", got, n*(n-1)/2)
	}
}

func TestA100FasterThanV100(t *testing.T) {
	// Memory-bound kernels gain the HBM bandwidth ratio (~1.7×) on the
	// newer part; the what-if projection must reflect that ordering.
	st := &KernelStats{MemTransactions: 1 << 22}
	v, a := V100(), A100()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	tv, ta := v.KernelTime(st), a.KernelTime(st)
	if ta >= tv {
		t.Fatalf("A100 %v not faster than V100 %v on a memory-bound kernel", ta, tv)
	}
	ratio := tv.Seconds() / ta.Seconds()
	if ratio < 1.5 || ratio > 1.9 {
		t.Fatalf("bandwidth ratio %.2f, want ≈1.7", ratio)
	}
}

// sortedFold is the reference foldWarp's distinct counting is pinned
// against: every step's sectors and atomic addresses are sorted, and a value
// counts once per run of equals.
func sortedFold(ws int, lanes [][]access) (transactions, atomics, maxPerAddr uint64) {
	sketch := make([]uint64, contentionBuckets)
	runs := func(a []uint64, each func(uint64)) {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		for i, v := range a {
			if i == 0 || v != a[i-1] {
				each(v)
			}
		}
	}
	for lo := 0; lo < len(lanes); lo += ws {
		warp := lanes[lo:min(lo+ws, len(lanes))]
		for step := 0; ; step++ {
			var sectors, addrs []uint64
			active := false
			for _, lane := range warp {
				if step >= len(lane) {
					continue
				}
				active = true
				a := lane[step]
				for s := a.addr / SectorBytes; s <= (a.addr+uint64(a.size)-1)/SectorBytes; s++ {
					sectors = append(sectors, s)
				}
				if a.kind == accAtomic {
					addrs = append(addrs, a.addr)
				}
			}
			if !active {
				break
			}
			runs(sectors, func(uint64) { transactions++ })
			runs(addrs, func(addr uint64) {
				atomics++
				sketch[mixAddr(addr)%contentionBuckets]++
			})
		}
	}
	for _, c := range sketch {
		maxPerAddr = max(maxPerAddr, c)
	}
	return transactions, atomics, maxPerAddr
}

// TestFoldMatchesSortedReference replays random warp steps — scattered,
// repeated, ascending, straddling sectors, wider than the address set takes,
// ragged across lanes — and checks every count foldWarp derives from "how
// many distinct" against the sort it no longer does.
func TestFoldMatchesSortedReference(t *testing.T) {
	d := testDevice(t)
	ws := d.Config().WarpSize
	rng := rand.New(rand.NewSource(7))
	const threads = 50*32 + 5 // a ragged last warp
	lanes := make([][]access, threads)
	for warp := 0; warp*ws < threads; warp++ {
		steps := 1 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			shape := rng.Intn(5)
			hot := uint64(rng.Intn(1 << 20))
			for l := 0; l < ws && warp*ws+l < threads; l++ {
				if rng.Intn(8) == 0 && step > 0 {
					continue // this lane diverges: its later accesses shift a step down
				}
				a := access{kind: accessKind(rng.Intn(3)), size: 4}
				switch shape {
				case 0: // coalesced, ascending
					a.addr = hot + uint64(l)*4
				case 1: // scattered probes, 12-byte slots straddling sectors
					a.addr, a.size = uint64(rng.Intn(1<<24))*12, 12
				case 2: // a few hot addresses, many repeats
					a.addr = hot + uint64(rng.Intn(3))*64
				case 3: // wide overlapping chunks: more sectors than the set takes
					a.addr, a.size = hot+uint64((ws-l)*40), uint32(100+rng.Intn(200))
				case 4: // descending stride
					a.addr = hot + uint64((ws-l)*128)
				}
				lanes[warp*ws+l] = append(lanes[warp*ws+l], a)
			}
		}
	}
	st, err := d.Launch(LaunchSpec{Name: "random", Threads: threads}, func(tid int, ctx *Ctx) {
		ctx.accesses = append(ctx.accesses, lanes[tid]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, at, hotMax := sortedFold(ws, lanes)
	if st.MemTransactions != tx || st.AtomicOps != at || st.MaxAtomicPerAddr != hotMax {
		t.Fatalf("fold: %d transactions, %d atomics, max %d per address; sorted reference: %d, %d, %d",
			st.MemTransactions, st.AtomicOps, st.MaxAtomicPerAddr, tx, at, hotMax)
	}
	if tx == 0 || at == 0 || hotMax < 2 {
		t.Fatalf("fixture too tame: %d transactions, %d atomics, max %d per address", tx, at, hotMax)
	}
}

// TestAddrSetDistinct pins distinct on its own: the same values as a sort's
// runs, for every length around the set's limit, including 0 and ^0.
func TestAddrSetDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var set addrSet
	for n := 0; n <= addrSetSlots; n++ {
		a := make([]uint64, n)
		for i := range a {
			switch rng.Intn(4) {
			case 0:
				a[i] = 0
			case 1:
				a[i] = ^uint64(0)
			default:
				a[i] = uint64(rng.Intn(n + 1)) // repeats
			}
		}
		if n%3 == 0 {
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		}
		want := map[uint64]bool{}
		for _, v := range a {
			want[v] = true
		}
		got := set.distinct(a)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d distinct values, want %d", n, len(got), len(want))
		}
		for _, v := range got {
			if !want[v] {
				t.Fatalf("n=%d: value %d returned twice or never given", n, v)
			}
			delete(want, v)
		}
	}
}
