package kernels

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
)

// rowsCRC checksums a row vector part for part: each destination's index and
// length, then its k-mers, the h words of headroom ahead of each skipped.
func rowsCRC(rows [][]uint64, h int) uint32 {
	c := crc32.NewIEEE()
	var w [8]byte
	for d, row := range rows {
		binary.LittleEndian.PutUint64(w[:], uint64(d)<<32|uint64(len(row)-h))
		c.Write(w[:])
		for _, v := range row[h:] {
			binary.LittleEndian.PutUint64(w[:], v)
			c.Write(w[:])
		}
	}
	return c.Sum32()
}

// TestParseKmersStatsPinned pins ParseKmers' full KernelStats and its rows,
// part for part and in order: the host re-derives each position's k-mer and
// bin in pass 2 instead of staging them, which changes what the host holds,
// never what the device is charged or what is shipped. The figures are those
// of the kernel that ships every part sample slice first: the slice test's
// ops in pass 1, a scan over two bins per destination, and a 16-bit bin
// staged between the passes where a 32-bit destination was. The fixtures
// carry N's, separators, an empty read and reads shorter than k; each runs
// with Canonical off and on, and with no headroom and a word frame header's.
func TestParseKmersStatsPinned(t *testing.T) {
	short := []string{"", "A", "ACGTACGTACGTACGT", "NNNNNNNNNNNNNNNNNNNNN", "ACGTNACGTACGTACGTACGTAC"}
	fixtures := map[string]struct {
		numDest int
		data    []byte
	}{
		"ragged dests": {7, buildBuffer(append(randReads(rand.New(rand.NewSource(60)), 30, 200, 0.03), short...))},
		"lr8 dests":    {12, buildBuffer(append(short, randReads(rand.New(rand.NewSource(61)), 45, 160, 0.01)...))},
	}
	stats := func(threads, blocks int, ops, raw, tx, bytes uint64) gpusim.KernelStats {
		return gpusim.KernelStats{Name: "parse_kmers", Threads: threads, Blocks: blocks,
			ComputeOps: ops, RawComputeOps: raw, MemTransactions: tx, MemBytesRequested: bytes}
	}
	for _, want := range []struct {
		fixture   string
		canonical bool
		crc       uint32
		st        gpusim.KernelStats
	}{
		{"ragged dests", false, 0xdf75e694, stats(13530, 54, 621664, 436117, 5403, 222825)},
		{"ragged dests", true, 0x1960710f, stats(13530, 54, 897472, 587893, 5395, 222825)},
		{"lr8 dests", false, 0x3bb52085, stats(21104, 83, 873664, 748015, 9806, 359226)},
		{"lr8 dests", true, 0xe78331d0, stats(21104, 83, 1262080, 1048354, 9846, 359226)},
	} {
		fx := fixtures[want.fixture]
		for _, h := range []int{0, WordFrameHeader} {
			cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: fx.numDest, Canonical: want.canonical, Headroom: h}
			rows, st, err := ParseKmers(dev(t), cfg, fx.data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st != want.st {
				t.Errorf("%s, canonical %v, headroom %d: stats %+v, want %+v", want.fixture, want.canonical, h, st, want.st)
			}
			if got := rowsCRC(rows, h); got != want.crc {
				t.Errorf("%s, canonical %v, headroom %d: rows checksum %#08x, want %#08x", want.fixture, want.canonical, h, got, want.crc)
			}
		}
	}
}

// TestParseKmersStagingHasNoPerPositionTerm parses inputs of very different
// lengths with a fresh pool and bounds what the slot grew to by the
// histogram — sliceBins counts per warp and destination — and the
// destination ranges alone, with growStaging's eighth to spare: nothing
// ParseKmers keeps between its passes is per position. (While the host
// staged a key and a destination per position, the slot held about 13.5 B a
// position on top.)
func TestParseKmersStagingHasNoPerPositionTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ws := gpusim.V100().WarpSize
	for _, n := range []int{3, 40, 400} {
		data := buildBuffer(randReads(rng, n, 250, 0.01))
		for _, numDest := range []int{1, 12, 64} {
			resetStaging(t)
			cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: numDest, Headroom: WordFrameHeader}
			if _, _, err := ParseKmers(dev(t), cfg, data, nil); err != nil {
				t.Fatal(err)
			}
			nWarps := (len(data) - cfg.K + 1 + ws - 1) / ws
			bound := (9*(4*nWarps*sliceBins*numDest+8*(numDest+1)) + 7) / 8
			if sg := Staging(); sg.Slots != 1 || sg.PeakBytes > int64(bound) {
				t.Errorf("%d positions, %d destinations: %d slots holding %d B at peak, want 1 slot within %d B",
					len(data)-cfg.K+1, numDest, sg.Slots, sg.PeakBytes, bound)
			}
		}
	}
}

// resetStaging empties the pool and its figures, so the next kernel's slot
// is the only one measured. No kernel may be running.
func resetStaging(t *testing.T) {
	t.Helper()
	st := &staging
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.out != 0 {
		t.Fatalf("%d staging slots out", st.out)
	}
	st.free, st.held, st.peak = nil, 0, 0
}
