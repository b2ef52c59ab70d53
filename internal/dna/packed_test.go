package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackedSeqBasic(t *testing.T) {
	var p PackedSeq
	seq := "GTCATGCATT"
	for i := 0; i < len(seq); i++ {
		p.Append(Lexicographic.MustEncode(seq[i]))
	}
	if p.Len() != len(seq) {
		t.Fatalf("len = %d, want %d", p.Len(), len(seq))
	}
	if got := p.String(&Lexicographic); got != seq {
		t.Fatalf("round trip = %q, want %q", got, seq)
	}
	if len(p.Bytes()) != PackedBytes(len(seq)) {
		t.Fatalf("bytes = %d, want %d", len(p.Bytes()), PackedBytes(len(seq)))
	}
}

func TestPackedSeqKmerExtraction(t *testing.T) {
	seq := "GTCATGCATT"
	codes, _ := Lexicographic.EncodeSeq(nil, []byte(seq))
	p := PackCodes(codes)
	k := 4
	for i := 0; i+k <= len(seq); i++ {
		got := p.Kmer(i, k).String(&Lexicographic, k)
		if got != seq[i:i+k] {
			t.Errorf("kmer(%d) = %q, want %q", i, got, seq[i:i+k])
		}
	}
}

func TestPackedSeqReset(t *testing.T) {
	p := PackCodes([]Code{1, 2, 3})
	p.Reset()
	if p.Len() != 0 || len(p.Bytes()) != 0 {
		t.Fatal("reset did not empty")
	}
	p.Append(2)
	if p.Len() != 1 || p.At(0) != 2 {
		t.Fatal("append after reset broken")
	}
}

func TestUnpackFrom(t *testing.T) {
	codes := []Code{0, 1, 2, 3, 3, 2, 1}
	p := PackCodes(codes)
	view := UnpackFrom(p.Bytes(), p.Len())
	for i, c := range codes {
		if view.At(i) != c {
			t.Fatalf("view[%d] = %d, want %d", i, view.At(i), c)
		}
	}
}

func TestUnpackFromPanicsWhenShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UnpackFrom([]byte{0}, 9)
}

func TestPackedRoundTripQuick(t *testing.T) {
	f := func(raw []byte) bool {
		codes := make([]Code, len(raw))
		for i, b := range raw {
			codes[i] = Code(b & 3)
		}
		p := PackCodes(codes)
		got := p.Codes(nil)
		if len(got) != len(codes) {
			return false
		}
		for i := range codes {
			if got[i] != codes[i] {
				return false
			}
		}
		// A view over the serialized bytes decodes identically.
		view := UnpackFrom(p.Bytes(), p.Len())
		for i := range codes {
			if view.At(i) != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedKmerMatchesSlidingWindow(t *testing.T) {
	// Property: extracting k-mers from a PackedSeq equals building them by
	// rolling Append over the codes.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(100)
		k := 1 + rng.Intn(MaxK)
		if k > n {
			k = n
		}
		codes := make([]Code, n)
		for i := range codes {
			codes[i] = Code(rng.Intn(4))
		}
		p := PackCodes(codes)
		var w Kmer
		for i := 0; i < n; i++ {
			w = w.Append(k, codes[i])
			if i >= k-1 {
				start := i - k + 1
				if got := p.Kmer(start, k); got != w {
					t.Fatalf("trial %d: kmer(%d,%d) = %x, rolling = %x", trial, start, k, got, w)
				}
			}
		}
	}
}

func TestSeqBuffer(t *testing.T) {
	var b SeqBuffer
	reads := []string{"ACGT", "GGGTTTAAA", "C"}
	for _, r := range reads {
		b.AppendRead([]byte(r))
	}
	total := 0
	for i, r := range reads {
		if got := string(b.Read(i)); got != r {
			t.Errorf("read %d = %q, want %q", i, got, r)
		}
		total += len(r)
	}
	if b.TotalBases() != total {
		t.Errorf("TotalBases = %d, want %d", b.TotalBases(), total)
	}
	if len(b.Data()) != total+len(reads) {
		t.Errorf("Data len = %d, want %d", len(b.Data()), total+len(reads))
	}
	// Separators present at read ends.
	if b.Data()[4] != SeparatorByte {
		t.Error("missing separator after first read")
	}
	b.Reset()
	if len(b.Data()) != 0 || b.TotalBases() != 0 {
		t.Error("reset did not empty buffer")
	}
}
