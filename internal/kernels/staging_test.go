package kernels

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/minimizer"
)

// packedCall is everything one caller gets back from the two packing kernels
// over one input: rows, the arenas under them, and the metered stats.
type packedCall struct {
	kmerRows  [][]uint64
	kmerBuf   []uint64
	kmerStats gpusim.KernelStats
	superRows [][]byte
	superBuf  []byte
	superStat gpusim.KernelStats
}

func packBoth(t *testing.T, data []byte, wordRoom, byteRoom int) packedCall {
	var (
		c  packedCall
		pk Packed[uint64]
		pb Packed[byte]
	)
	var err error
	pc := ParseConfig{Enc: &dna.Random, K: 17, NumDest: 12, Headroom: wordRoom}
	if c.kmerRows, c.kmerStats, err = ParseKmers(gpusim.MustDevice(gpusim.V100()), pc, data, &ParseScratch{Out: &pk}); err != nil {
		t.Error(err)
	}
	sc := SupermerConfig{Enc: &dna.Random, C: minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}, NumDest: 12, Headroom: byteRoom}
	if c.superRows, c.superStat, err = BuildSupermers(gpusim.MustDevice(gpusim.V100()), sc, data, &SupermerScratch{Out: &pb}); err != nil {
		t.Error(err)
	}
	c.kmerBuf, c.superBuf = pk.buf, pb.buf
	return c
}

// TestStagingPoolConcurrentKernels runs both packing kernels from 12
// goroutines at once, each over its own input — more callers than the pool has
// slots at any -cpu, inputs of different sizes so every slot is reused with a
// larger and a smaller kernel's leftovers in it — and requires every caller's
// rows, arena and stats to equal those of the same call made alone. Meant for
// `go test -race -cpu 1,2,4`.
func TestStagingPoolConcurrentKernels(t *testing.T) {
	const callers = 12
	rng := rand.New(rand.NewSource(51))
	inputs := make([][]byte, callers)
	for i := range inputs {
		inputs[i] = buildBuffer(randReads(rng, 4+3*i, 300, 0.02))
	}
	for _, room := range []struct{ words, bytes int }{{0, 0}, {WordFrameHeader, ByteFrameHeader}} {
		want := make([]packedCall, callers)
		for i, data := range inputs {
			want[i] = packBoth(t, data, room.words, room.bytes)
		}
		got := make([]packedCall, callers)
		var wg sync.WaitGroup
		for i := range inputs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got[i] = packBoth(t, inputs[i], room.words, room.bytes)
				}
			}()
		}
		wg.Wait()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("headroom %d/%d: caller %d's concurrent call differs from the same call made alone", room.words, room.bytes, i)
			}
		}
	}
	staging.mu.Lock()
	out, slots := staging.out, len(staging.free)
	staging.mu.Unlock()
	// A slot is only made when every existing one is out, so the slots held
	// are the most that were ever out at once.
	if out != 0 || slots < 1 || slots > runtime.GOMAXPROCS(0) {
		t.Fatalf("after the kernels: %d slots out, %d free; want none out and 1..GOMAXPROCS=%d free", out, slots, runtime.GOMAXPROCS(0))
	}
	if sg := Staging(); sg.Slots != slots || sg.PeakBytes <= 0 {
		t.Fatalf("Staging() = %+v with %d slots free", sg, slots)
	}
}

// TestStagingPoolBound takes every slot the bound allows and checks that a
// kernel then waits — it neither runs on a slot beyond the bound nor fails —
// until one comes back, and that the wait is accounted.
func TestStagingPoolBound(t *testing.T) {
	held := make([]*stagingSlot, runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = acquireStaging()
	}
	before := Staging()
	data := buildBuffer(randReads(rand.New(rand.NewSource(52)), 5, 200, 0))
	d := gpusim.MustDevice(gpusim.V100())
	done, started := make(chan error, 1), make(chan struct{})
	go func() {
		close(started)
		_, _, err := ParseKmers(d, ParseConfig{Enc: &dna.Random, K: 17, NumDest: 3}, data, nil)
		done <- err
	}()
	// The kernel times its wait from when it reaches the pool, so the block
	// is timed from its goroutine's start, with the device already built: a
	// device built in the goroutine put up to 3.6 ms between the two under
	// -race, and the accounted wait fell short of the block.
	<-started
	const blocked = 50 * time.Millisecond
	select {
	case err := <-done:
		t.Fatalf("kernel finished (err = %v) with all %d slots out", err, len(held))
	case <-time.After(blocked):
	}
	releaseStaging(held[0])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, s := range held[1:] {
		releaseStaging(s)
	}
	after := Staging()
	if waited := after.Wait - before.Wait; waited < blocked {
		t.Fatalf("kernel waited %v for a slot, accounted %v", blocked, waited)
	}
	if after.Slots > len(held) {
		t.Fatalf("%d slots held, bound %d", after.Slots, len(held))
	}
}

// TestStagingSlotReturnsAfterKernelError fails a kernel inside its first
// launch — Validate checks the DestMap's length, not its values, so an entry
// past NumDest indexes beyond the histogram, the body panics and Launch turns
// that into an error — and checks the slot came back: at -cpu 1 the next
// kernel would otherwise wait forever.
func TestStagingSlotReturnsAfterKernelError(t *testing.T) {
	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}
	destMap := make([]uint16, 1<<(2*7))
	for i := range destMap {
		destMap[i] = 1<<16 - 1
	}
	data := buildBuffer(randReads(rand.New(rand.NewSource(53)), 5, 200, 0))
	cfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: 2, DestMap: destMap}
	if _, _, err := BuildSupermers(dev(t), cfg, data, nil); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the launch's panic", err)
	}
	staging.mu.Lock()
	out := staging.out
	staging.mu.Unlock()
	if out != 0 {
		t.Fatalf("%d slots still out after the failed kernel", out)
	}
	cfg.DestMap = nil
	if _, _, err := BuildSupermers(dev(t), cfg, data, nil); err != nil {
		t.Fatal(err)
	}
}
