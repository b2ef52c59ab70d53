package dna

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncodingRoundTrip(t *testing.T) {
	for _, e := range []*Encoding{&Lexicographic, &Random} {
		for _, ch := range []byte("ACGT") {
			code, ok := e.Encode(ch)
			if !ok {
				t.Fatalf("%s: %q should be valid", e.Name(), ch)
			}
			if got := e.Decode(code); got != ch {
				t.Errorf("%s: decode(encode(%q)) = %q", e.Name(), ch, got)
			}
		}
		// Lower case maps to the same codes.
		for _, pair := range [][2]byte{{'a', 'A'}, {'c', 'C'}, {'g', 'G'}, {'t', 'T'}} {
			lo, _ := e.Encode(pair[0])
			up, _ := e.Encode(pair[1])
			if lo != up {
				t.Errorf("%s: case mismatch for %q", e.Name(), pair[1])
			}
		}
	}
}

func TestEncodingValues(t *testing.T) {
	// Lexicographic: A=0 C=1 G=2 T=3.
	wantLex := map[byte]Code{'A': 0, 'C': 1, 'G': 2, 'T': 3}
	for ch, want := range wantLex {
		if got := Lexicographic.MustEncode(ch); got != want {
			t.Errorf("lex %q = %d, want %d", ch, got, want)
		}
	}
	// Paper's random ordering (§IV-A): A=1, C=0, T=2, G=3.
	wantRnd := map[byte]Code{'A': 1, 'C': 0, 'T': 2, 'G': 3}
	for ch, want := range wantRnd {
		if got := Random.MustEncode(ch); got != want {
			t.Errorf("random %q = %d, want %d", ch, got, want)
		}
	}
}

func TestEncodingInvalid(t *testing.T) {
	for _, ch := range []byte{'N', 'n', 'X', ' ', 0, 255, SeparatorByte} {
		if _, ok := Lexicographic.Encode(ch); ok {
			t.Errorf("%q should be invalid", ch)
		}
		if Lexicographic.Valid(ch) {
			t.Errorf("Valid(%q) should be false", ch)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C'}
	for _, e := range []*Encoding{&Lexicographic, &Random} {
		for b, comp := range pairs {
			got := e.Decode(e.Complement(e.MustEncode(b)))
			if got != comp {
				t.Errorf("%s: complement(%q) = %q, want %q", e.Name(), b, got, comp)
			}
		}
	}
}

func TestEncodeSeq(t *testing.T) {
	codes, err := Lexicographic.EncodeSeq(nil, []byte("ACGT"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Code{0, 1, 2, 3}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("EncodeSeq = %v, want %v", codes, want)
		}
	}
	if _, err := Lexicographic.EncodeSeq(nil, []byte("ACNGT")); err == nil {
		t.Fatal("expected error for N")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Lexicographic.MustEncode('N')
}

func TestEncodeSeqQuick(t *testing.T) {
	// Property: EncodeSeq then Decode is identity on ACGT strings.
	f := func(raw []byte) bool {
		seq := make([]byte, len(raw))
		for i, b := range raw {
			seq[i] = "ACGT"[b&3]
		}
		codes, err := Random.EncodeSeq(nil, seq)
		if err != nil {
			return false
		}
		back := make([]byte, len(codes))
		for i, c := range codes {
			back[i] = Random.Decode(c)
		}
		return bytes.Equal(back, seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
