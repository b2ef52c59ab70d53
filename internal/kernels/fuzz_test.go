package kernels

import (
	"errors"
	"slices"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/gpusim"
	"dedukt/internal/minimizer"
)

// FuzzWireRoundTrip drives the supermer wire codec with fuzz-derived
// supermer contents and parameters: Encode→Decode must be the identity, and
// Decode must reject corrupt length bytes with an error wrapping
// ErrCorruptWire (its documented contract) rather than panicking or reading
// out of bounds.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint8(17), uint8(15), uint8(3), []byte{0x1b, 0x2c})
	f.Add(uint8(5), uint8(1), uint8(1), []byte{})
	f.Add(uint8(32), uint8(255), uint8(200), []byte{0xff})
	f.Fuzz(func(t *testing.T, kRaw, windowRaw, nkRaw uint8, baseSeed []byte) {
		k := int(kRaw%32) + 1
		window := int(windowRaw)
		if window == 0 {
			window = 1
		}
		wire := SupermerWire{K: k, Window: window}
		if wire.Validate() != nil {
			return
		}
		nk := int(nkRaw)%window + 1
		nBases := nk + k - 1
		codes := make([]dna.Code, nBases)
		for i := range codes {
			if len(baseSeed) > 0 {
				codes[i] = dna.Code(baseSeed[i%len(baseSeed)] & 3)
			}
		}
		s := minimizer.Supermer{Seq: dna.PackCodes(codes), NKmers: nk}
		buf := wire.Encode(nil, &s)
		if len(buf) != wire.Stride() {
			t.Fatalf("stride %d, encoded %d", wire.Stride(), len(buf))
		}
		seq, gotNk, err := wire.Decode(buf)
		if err != nil {
			t.Fatalf("decode of valid image failed: %v", err)
		}
		if gotNk != nk || seq.Len() != nBases {
			t.Fatalf("decode nk=%d len=%d, want %d/%d", gotNk, seq.Len(), nk, nBases)
		}
		for i := range codes {
			if seq.At(i) != codes[i] {
				t.Fatalf("base %d mismatch", i)
			}
		}
		// Corrupt length byte: 0 and >window must be rejected with an error.
		for _, bad := range []byte{0, byte(window) + 1} {
			if int(bad) > 255 || (bad != 0 && window >= 255) {
				continue
			}
			corrupt := append([]byte(nil), buf...)
			corrupt[len(corrupt)-1] = bad
			if _, _, err := wire.Decode(corrupt); !errors.Is(err, ErrCorruptWire) {
				t.Fatalf("corrupt length byte %d: err=%v, want ErrCorruptWire", bad, err)
			}
		}
	})
}

// FuzzParseKmers checks ParseKmers' pass-2 re-derivation against a plain
// host loop over arbitrary bytes: every position, ascending, whose k bases
// all encode appends its k-mer (canonical when asked) to row DestOf(k-mer) —
// to the row's sample part when the k-mer lies in the sample slice, else to
// its rest, the sample part shipped first. The rows must equal that
// reference exactly, order included, and the frame header's room ahead of
// each row must hold what it held before the call.
func FuzzParseKmers(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCA\x00GGATCCNNACGT"), uint8(4), uint8(3), false)
	f.Add([]byte("ACGTTGCAAGGCATCTA\x00TAGATGCCTTGCAACGT"), uint8(16), uint8(4), true)
	f.Add([]byte("acgtNNNN"), uint8(0), uint8(0), true)
	f.Add([]byte{}, uint8(31), uint8(63), false)
	f.Fuzz(func(t *testing.T, data []byte, kRaw, destRaw uint8, canonical bool) {
		k, numDest := int(kRaw%32)+1, int(destRaw%64)+1
		enc := &dna.Random
		want, rest := make([][]uint64, numDest), make([][]uint64, numDest)
		for i := 0; i+k <= len(data); i++ {
			w, err := dna.KmerFromString(enc, string(data[i:i+k]))
			if err != nil {
				continue
			}
			if canonical {
				w = w.Canonical(enc, k)
			}
			if d := DestOf(uint64(w), numDest); InSample(uint64(w)) {
				want[d] = append(want[d], uint64(w))
			} else {
				rest[d] = append(rest[d], uint64(w))
			}
		}
		for d := range want {
			want[d] = append(want[d], rest[d]...)
		}

		const h, sentinel = WordFrameHeader, 0x5eed5eed5eed5eed
		var pk Packed[uint64]
		pk.buf = make([]uint64, len(data)+numDest*h)
		for i := range pk.buf {
			pk.buf[i] = sentinel
		}
		cfg := ParseConfig{Enc: enc, K: k, NumDest: numDest, Canonical: canonical, Headroom: h}
		rows, _, err := ParseKmers(gpusim.MustDevice(gpusim.V100()), cfg, data, &ParseScratch{Out: &pk})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != numDest {
			t.Fatalf("%d rows, want %d", len(rows), numDest)
		}
		for d, row := range rows {
			for i, v := range row[:h] {
				if v != sentinel {
					t.Fatalf("row %d: headroom word %d overwritten with %#x", d, i, v)
				}
			}
			if !slices.Equal(row[h:], want[d]) {
				t.Fatalf("row %d: %d k-mers %x, reference %d %x", d, len(row)-h, row[h:], len(want[d]), want[d])
			}
		}
	})
}

// FuzzWireCorruptInput feeds fully attacker-controlled bytes — as arrive
// from the exchange — to every receive-side entry point: Decode, Count,
// VerifyImages, and UnframeBytes must return an error (or succeed) but
// never panic, whatever the input.
func FuzzWireCorruptInput(f *testing.F) {
	f.Add(uint8(17), uint8(15), []byte{})
	f.Add(uint8(17), uint8(15), []byte{0, 0, 0, 0, 0, 0, 0, 0, 16})
	f.Add(uint8(5), uint8(3), []byte("dkfr\x01\x00\x00\x00garbage"))
	f.Add(uint8(32), uint8(255), AppendFrameBytes(nil, []byte{1, 2, 3}, 1))
	f.Fuzz(func(t *testing.T, kRaw, windowRaw uint8, raw []byte) {
		k := int(kRaw%32) + 1
		window := int(windowRaw)
		if window == 0 {
			window = 1
		}
		wire := SupermerWire{K: k, Window: window}
		if wire.Validate() != nil {
			return
		}
		// None of these may panic; errors must wrap ErrCorruptWire.
		if _, _, err := wire.Decode(raw); err != nil && !errors.Is(err, ErrCorruptWire) {
			t.Fatalf("Decode error %v does not wrap ErrCorruptWire", err)
		}
		if _, err := wire.Count(raw); err != nil && !errors.Is(err, ErrCorruptWire) {
			t.Fatalf("Count error %v does not wrap ErrCorruptWire", err)
		}
		if _, _, err := wire.VerifyImages(raw); err != nil && !errors.Is(err, ErrCorruptWire) {
			t.Fatalf("VerifyImages error %v does not wrap ErrCorruptWire", err)
		}
		if payload, _, err := UnframeBytes(raw); err == nil {
			// An accepted frame must expose exactly the framed payload; the
			// image layer then re-validates it.
			_, _, _ = wire.VerifyImages(payload)
		} else if !errors.Is(err, ErrCorruptWire) {
			t.Fatalf("UnframeBytes error %v does not wrap ErrCorruptWire", err)
		}
		// Word-frame view of the same bytes (whole words only).
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for b := 0; b < 8; b++ {
				words[i] |= uint64(raw[i*8+b]) << (8 * b)
			}
		}
		if _, err := UnframeWords(words); err != nil && !errors.Is(err, ErrCorruptWire) {
			t.Fatalf("UnframeWords error %v does not wrap ErrCorruptWire", err)
		}
	})
}
