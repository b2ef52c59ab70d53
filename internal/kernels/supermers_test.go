package kernels

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"dedukt/internal/dna"
	"dedukt/internal/minimizer"
)

// TestBuildSupermersPinnedBytes pins BuildSupermers' output on the fixtures
// of the neighbouring tests, byte for byte and part for part, to what it
// was while descriptors were three int32s: packing them changes what the
// device is charged, never what is shipped.
func TestBuildSupermersPinnedBytes(t *testing.T) {
	value := func(m int) minimizer.Config {
		return minimizer.Config{K: 17, M: m, Window: 15, Ord: minimizer.Value{}}
	}
	destMap := make([]uint16, 1<<10)
	for i := range destMap {
		destMap[i] = uint16(i % 3)
	}
	for name, fx := range map[string]struct {
		cfg  SupermerConfig
		data []byte
		want uint32
	}{
		"hash routed": {SupermerConfig{Enc: &dna.Random, C: value(7), NumDest: 5},
			buildBuffer(randReads(rand.New(rand.NewSource(43)), 25, 300, 0.02)), 0xdb93a6b8},
		"dest map": {SupermerConfig{Enc: &dna.Random, C: value(5), NumDest: 3, DestMap: destMap},
			buildBuffer(randReads(rand.New(rand.NewSource(47)), 10, 200, 0)), 0x82fd1aec},
		"with ambiguous bases": {SupermerConfig{Enc: &dna.Random, C: value(7), NumDest: 6},
			buildBuffer(randReads(rand.New(rand.NewSource(48)), 30, 300, 0.02)), 0xe019d662},
	} {
		out, _, err := BuildSupermers(dev(t), fx.cfg, fx.data, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := crc32.NewIEEE()
		for d, p := range out {
			h.Write([]byte{byte(d), byte(len(p)), byte(len(p) >> 8), byte(len(p) >> 16)})
			h.Write(p)
		}
		if got := h.Sum32(); got != fx.want {
			t.Errorf("%s: output checksum %#08x, want %#08x", name, got, fx.want)
		}
	}
}

// TestSuperDescExtremes drives the packed descriptor to the top of every
// field — the widest window (off up to 254, nk up to 255) and the highest
// destination (65535) — and checks the supermers still come out exactly as
// minimizer.BuildWindowed cuts them.
func TestSuperDescExtremes(t *testing.T) {
	if size := unsafe.Sizeof(superDesc{}); size != descBytes {
		t.Fatalf("superDesc is %d bytes on the host, the device is charged %d", size, descBytes)
	}
	const window, numDest = 255, 1 << 16
	mcfg := minimizer.Config{K: 17, M: 7, Window: window, Ord: minimizer.Value{}}
	destMap := make([]uint16, 1<<(2*7))
	for i := range destMap {
		destMap[i] = numDest - 1
	}
	// A homopolymer keeps one minimizer over whole chunks (nk = window);
	// random reads start supermers at every offset of a chunk.
	reads := append([]string{strings.Repeat("A", 4*window)}, randReads(rand.New(rand.NewSource(49)), 40, 600, 0.01)...)
	data := buildBuffer(reads)
	cfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: numDest, DestMap: destMap}
	var scr SupermerScratch
	out, _, err := BuildSupermers(dev(t), cfg, data, &scr)
	if err != nil {
		t.Fatal(err)
	}
	wire := SupermerWire{K: mcfg.K, Window: window}
	var want []byte
	if err := minimizer.BuildWindowed(&dna.Random, data, mcfg, func(s minimizer.Supermer) {
		want = wire.Encode(want, &s)
	}); err != nil {
		t.Fatal(err)
	}
	for d, part := range out[:numDest-1] {
		if len(part) != 0 {
			t.Fatalf("%d bytes for destination %d, the map sends everything to %d", len(part), d, numDest-1)
		}
	}
	if !bytes.Equal(out[numDest-1], want) {
		t.Fatalf("%d wire bytes differ from BuildWindowed's %d", len(out[numDest-1]), len(want))
	}
	// The descriptors are still in the staging slot the kernel just returned:
	// the pool is last-in first-out and no other kernel runs beside this test.
	stg := staging.free[len(staging.free)-1]
	var lastOff, fullChunk bool
	for tid, n := range stg.nDescs {
		for _, d := range stg.descs[tid*window : tid*window+int(n)] {
			lastOff = lastOff || d.off == window-1
			fullChunk = fullChunk || d.nk == window
		}
	}
	if !lastOff || !fullChunk {
		t.Fatalf("fixture reached off = window-1: %v, nk = window: %v; want both", lastOff, fullChunk)
	}
}
