package dna

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKmerFromString(t *testing.T) {
	// Lexicographic: GTC -> 10 11 01 = 0b101101 = 45.
	w := MustKmer(&Lexicographic, "GTC")
	if w != 0b101101 {
		t.Fatalf("GTC = %b, want 101101", w)
	}
	if got := w.String(&Lexicographic, 3); got != "GTC" {
		t.Fatalf("round trip = %q", got)
	}
}

func TestKmerOrderMatchesLexOrder(t *testing.T) {
	// Under the lexicographic encoding, packed integer order == string order
	// for equal k. This is the property minimizer selection relies on.
	strs := []string{"AAAA", "AAAC", "AACA", "ACGT", "CAAA", "GGGG", "TTTT"}
	for i := 0; i < len(strs)-1; i++ {
		a := MustKmer(&Lexicographic, strs[i])
		b := MustKmer(&Lexicographic, strs[i+1])
		if a >= b {
			t.Errorf("%s (%d) should pack below %s (%d)", strs[i], a, strs[i+1], b)
		}
	}
}

func TestKmerAppend(t *testing.T) {
	k := 3
	w := MustKmer(&Lexicographic, "GTC")
	w = w.Append(k, Lexicographic.MustEncode('A'))
	if got := w.String(&Lexicographic, k); got != "TCA" {
		t.Fatalf("append A: got %q, want TCA", got)
	}
}

func TestKmerBaseAndSub(t *testing.T) {
	k := 8
	w := MustKmer(&Lexicographic, "GTCATGCA")
	wantBases := "GTCATGCA"
	for i := 0; i < k; i++ {
		if got := Lexicographic.Decode(w.Base(k, i)); got != wantBases[i] {
			t.Errorf("base %d = %q, want %q", i, got, wantBases[i])
		}
	}
	// Sub-k-mers of length 4 (minimizer candidates).
	for i := 0; i+4 <= k; i++ {
		sub := w.Sub(k, i, 4)
		if got := sub.String(&Lexicographic, 4); got != wantBases[i:i+4] {
			t.Errorf("sub(%d,4) = %q, want %q", i, got, wantBases[i:i+4])
		}
	}
}

func TestKmerSubPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustKmer(&Lexicographic, "ACGT").Sub(4, 2, 3)
}

func TestReverseComplement(t *testing.T) {
	cases := map[string]string{
		"ACGT":     "ACGT", // palindrome
		"AAAA":     "TTTT",
		"GTCA":     "TGAC",
		"GATTACA":  "TGTAATC",
		"ACGTACGT": "ACGTACGT",
	}
	for in, want := range cases {
		for _, e := range []*Encoding{&Lexicographic, &Random} {
			w := MustKmer(e, in)
			got := w.ReverseComplement(e, len(in)).String(e, len(in))
			if got != want {
				t.Errorf("%s: rc(%s) = %s, want %s", e.Name(), in, got, want)
			}
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte, kRaw uint8) bool {
		k := int(kRaw%MaxK) + 1
		var w Kmer
		for i := range k {
			w <<= 2
			if len(raw) > 0 {
				w |= Kmer(raw[i%len(raw)] & 3)
			}
		}
		rc2 := w.ReverseComplement(&Random, k).ReverseComplement(&Random, k)
		return rc2 == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCanonical(t *testing.T) {
	k := 5
	w := MustKmer(&Lexicographic, "TTTTT")
	can := w.Canonical(&Lexicographic, k)
	if got := can.String(&Lexicographic, k); got != "AAAAA" {
		t.Fatalf("canonical(TTTTT) = %q, want AAAAA", got)
	}
	// A k-mer and its RC share a canonical form.
	rc := w.ReverseComplement(&Lexicographic, k)
	if rc.Canonical(&Lexicographic, k) != can {
		t.Fatal("canonical not shared with reverse complement")
	}
}

func TestKmerMask(t *testing.T) {
	if KmerMask(0) != 0 {
		t.Error("mask(0) != 0")
	}
	if KmerMask(1) != 3 {
		t.Error("mask(1) != 3")
	}
	if KmerMask(32) != ^Kmer(0) {
		t.Error("mask(32) != all ones")
	}
	if KmerMask(17) != (1<<34)-1 {
		t.Error("mask(17) wrong")
	}
}

func TestPackedBytes(t *testing.T) {
	cases := []struct{ k, bytes int }{
		{1, 1}, {4, 1}, {5, 2}, {17, 5}, {32, 8}, {33, 9}, {64, 16},
	}
	for _, c := range cases {
		if got := PackedBytes(c.k); got != c.bytes {
			t.Errorf("PackedBytes(%d) = %d, want %d", c.k, got, c.bytes)
		}
	}
}

func TestKmerStringRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(MaxK)
		seq := make([]byte, k)
		for i := range seq {
			seq[i] = "ACGT"[rng.Intn(4)]
		}
		for _, e := range []*Encoding{&Lexicographic, &Random} {
			w := MustKmer(e, string(seq))
			if got := w.String(e, k); got != string(seq) {
				t.Fatalf("%s: round trip %q -> %q", e.Name(), seq, got)
			}
		}
	}
}
