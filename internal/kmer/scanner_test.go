package kmer

import (
	"math/rand"
	"testing"

	"dedukt/internal/dna"
)

func TestScannerBasic(t *testing.T) {
	// Fig. 2 of the paper: read "GTCA..." with k=3 yields GTC, TCA, ...
	seq := []byte("GTCATG")
	var got []string
	ForEach(&dna.Lexicographic, seq, 3, func(w dna.Kmer, pos int) {
		got = append(got, w.String(&dna.Lexicographic, 3))
	})
	want := []string{"GTC", "TCA", "CAT", "ATG"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestScannerPositions(t *testing.T) {
	seq := []byte("ACGTACGT")
	k := 4
	i := 0
	ForEach(&dna.Random, seq, k, func(w dna.Kmer, pos int) {
		if pos != i {
			t.Fatalf("kmer %d at pos %d", i, pos)
		}
		if got := w.String(&dna.Random, k); got != string(seq[pos:pos+k]) {
			t.Fatalf("kmer at %d = %q", pos, got)
		}
		i++
	})
	if i != len(seq)-k+1 {
		t.Fatalf("yielded %d kmers, want %d", i, len(seq)-k+1)
	}
}

func TestScannerSkipsInvalidWindows(t *testing.T) {
	// N at position 4: windows overlapping it are suppressed.
	seq := []byte("ACGTNACGT")
	var got []string
	ForEach(&dna.Lexicographic, seq, 3, func(w dna.Kmer, pos int) {
		got = append(got, w.String(&dna.Lexicographic, 3))
	})
	want := []string{"ACG", "CGT", "ACG", "CGT"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestScannerShortRead(t *testing.T) {
	if n := Count(&dna.Lexicographic, []byte("AC"), 3); n != 0 {
		t.Fatalf("short read yielded %d kmers", n)
	}
	if n := Count(&dna.Lexicographic, []byte(""), 3); n != 0 {
		t.Fatalf("empty read yielded %d kmers", n)
	}
	if n := Count(&dna.Lexicographic, []byte("ACG"), 3); n != 1 {
		t.Fatalf("exact-k read yielded %d kmers", n)
	}
}

func TestScannerAllInvalid(t *testing.T) {
	if n := Count(&dna.Lexicographic, []byte("NNNNNNNN"), 3); n != 0 {
		t.Fatalf("all-N read yielded %d kmers", n)
	}
}

func TestNewScannerPanics(t *testing.T) {
	for _, k := range []int{0, -1, dna.MaxK + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d should panic", k)
				}
			}()
			NewScanner(&dna.Lexicographic, []byte("ACGT"), k)
		}()
	}
}

func TestExtractRespectsSeparators(t *testing.T) {
	var b dna.SeqBuffer
	b.AppendRead([]byte("ACGTA"))
	b.AppendRead([]byte("GGCC"))
	k := 3
	kmers := Extract(nil, &dna.Lexicographic, b.Data(), k)
	// Per-read extraction must match: no k-mer straddles the boundary.
	var want []dna.Kmer
	want = Extract(want, &dna.Lexicographic, []byte("ACGTA"), k)
	want = Extract(want, &dna.Lexicographic, []byte("GGCC"), k)
	if len(kmers) != len(want) {
		t.Fatalf("buffer yielded %d kmers, per-read %d", len(kmers), len(want))
	}
	for i := range want {
		if kmers[i] != want[i] {
			t.Fatalf("kmer %d: %x vs %x", i, kmers[i], want[i])
		}
	}
}

func TestScannerMatchesNaive(t *testing.T) {
	// Property: rolling scanner equals naive substring encoding, for random
	// reads with injected Ns, across k values.
	rng := rand.New(rand.NewSource(11))
	alpha := "ACGTN"
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(120)
		seq := make([]byte, n)
		for i := range seq {
			if rng.Intn(12) == 0 {
				seq[i] = 'N'
			} else {
				seq[i] = alpha[rng.Intn(4)]
			}
		}
		k := 1 + rng.Intn(31)
		var naive []dna.Kmer
	outer:
		for i := 0; i+k <= n; i++ {
			for j := i; j < i+k; j++ {
				if seq[j] == 'N' {
					continue outer
				}
			}
			w, err := dna.KmerFromString(&dna.Random, string(seq[i:i+k]))
			if err != nil {
				t.Fatal(err)
			}
			naive = append(naive, w)
		}
		got := Extract(nil, &dna.Random, seq, k)
		if len(got) != len(naive) {
			t.Fatalf("trial %d (k=%d): %d vs naive %d kmers", trial, k, len(got), len(naive))
		}
		for i := range naive {
			if got[i] != naive[i] {
				t.Fatalf("trial %d: kmer %d mismatch", trial, i)
			}
		}
	}
}
