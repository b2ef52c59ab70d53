package kernels

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/minimizer"
)

// TestWordsCRCPinned pins the word-frame checksum to the values the
// one-Update-per-word loop produced, at the lengths where the chunked
// encoder changes behaviour: empty, one word, and one short of, exactly and
// one past its 512-word buffer, plus many buffers. The checksum is wire
// format — a rank built before the chunking must accept these frames.
func TestWordsCRCPinned(t *testing.T) {
	for _, c := range []struct {
		n    int
		want uint32
	}{
		{0, 0x00000000},
		{1, 0xa3c1cd82},
		{511, 0xbd2a98ea},
		{512, 0x45394b16},
		{513, 0x12daa46f},
		{65536, 0xd410cdd6},
	} {
		words := make([]uint64, c.n)
		for i := range words {
			words[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		}
		if got := wordsCRC(words); got != c.want {
			t.Errorf("wordsCRC of %d words = %08x, want %08x", c.n, got, c.want)
		}
	}
}

// TestSealInPlaceMatchesAppend: a row sealed where it lies, behind header
// room, is byte for byte the frame AppendFrame* builds from a copy of the
// row, and Unframe* accepts it — for random rows, empty ones included.
func TestSealInPlaceMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = 0
		}

		words := make([]uint64, WordFrameHeader+n)
		for i := range words {
			words[i] = rng.Uint64() // the room holds garbage until sealed
		}
		wantW := AppendFrameWords(nil, words[WordFrameHeader:])
		SealFrameWords(words)
		if !slices.Equal(words, wantW) {
			t.Fatalf("trial %d: sealed word frame %x != appended %x", trial, words, wantW)
		}
		if got, err := UnframeWords(words); err != nil || !slices.Equal(got, wantW[WordFrameHeader:]) {
			t.Fatalf("trial %d: sealed word frame rejected: %v", trial, err)
		}

		const stride = 9
		frame := make([]byte, ByteFrameHeader+n*stride)
		rng.Read(frame)
		wantB := AppendFrameBytes(nil, frame[ByteFrameHeader:], n)
		SealFrameBytes(frame, n)
		if !bytes.Equal(frame, wantB) {
			t.Fatalf("trial %d: sealed byte frame %x != appended %x", trial, frame, wantB)
		}
		if got, items, err := UnframeBytes(frame); err != nil || items != n || !bytes.Equal(got, wantB[ByteFrameHeader:]) {
			t.Fatalf("trial %d: sealed byte frame rejected: %d items, %v", trial, items, err)
		}
	}
}

// checkHeadroom asserts the layout ParseConfig.Headroom documents: row d is
// h units of room followed by exactly the headroom-free part, its capacity
// clamped so that appending to one row can never reach its neighbour in the
// arena.
func checkHeadroom[T comparable](t *testing.T, rows, parts [][]T, h int) {
	t.Helper()
	if len(rows) != len(parts) {
		t.Fatalf("%d rows for %d parts", len(rows), len(parts))
	}
	for d, row := range rows {
		if len(row) != h+len(parts[d]) || cap(row) != len(row) {
			t.Fatalf("dest %d: row len %d cap %d, want both %d+%d", d, len(row), cap(row), h, len(parts[d]))
		}
		if !slices.Equal(row[h:], parts[d]) {
			t.Fatalf("dest %d: part behind %d units of headroom differs from the headroom-free part", d, h)
		}
	}
}

// TestHeadroomLeavesPartsAndStatsAlone: with the frame header's room ahead
// of each destination's part the packing kernels emit the same parts, in the
// same order, and meter the same KernelStats as with none — headroom is
// host-side layout, the simulated addresses stay the logical slots — at a
// single destination, a warp-friendly count and a ragged one. It also pins
// what the pipeline's slot rotation rests on: rows packed into one Packed
// survive the same scratch packing another input into a second.
func TestHeadroomLeavesPartsAndStatsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	data := buildBuffer(randReads(rng, 25, 280, 0.02))
	other := buildBuffer(randReads(rng, 25, 280, 0.02))
	mcfg := minimizer.Config{K: 17, M: 7, Window: 15, Ord: minimizer.Value{}}

	for _, numDest := range []int{1, 12, 13} {
		t.Run(fmt.Sprintf("kmer/dests=%d", numDest), func(t *testing.T) {
			cfg := ParseConfig{Enc: &dna.Random, K: 17, NumDest: numDest}
			parts, want, err := ParseKmers(dev(t), cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Headroom = WordFrameHeader
			var (
				scr  ParseScratch
				a, b Packed[uint64]
			)
			scr.Out = &a
			rows, got, err := ParseKmers(dev(t), cfg, data, &scr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("stats with headroom %+v, without %+v", got, want)
			}
			checkHeadroom(t, rows, parts, WordFrameHeader)
			scr.Out = &b
			if _, _, err := ParseKmers(dev(t), cfg, other, &scr); err != nil {
				t.Fatal(err)
			}
			checkHeadroom(t, rows, parts, WordFrameHeader)
		})
		t.Run(fmt.Sprintf("supermer/dests=%d", numDest), func(t *testing.T) {
			cfg := SupermerConfig{Enc: &dna.Random, C: mcfg, NumDest: numDest}
			parts, want, err := BuildSupermers(dev(t), cfg, data, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Headroom = ByteFrameHeader
			var (
				scr  SupermerScratch
				a, b Packed[byte]
			)
			scr.Out = &a
			rows, got, err := BuildSupermers(dev(t), cfg, data, &scr)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("stats with headroom %+v, without %+v", got, want)
			}
			checkHeadroom(t, rows, parts, ByteFrameHeader)
			scr.Out = &b
			if _, _, err := BuildSupermers(dev(t), cfg, other, &scr); err != nil {
				t.Fatal(err)
			}
			checkHeadroom(t, rows, parts, ByteFrameHeader)
		})
	}
}
