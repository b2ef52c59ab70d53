package genome

import (
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/kmer"
)

func TestQualityModelShape(t *testing.T) {
	g, _ := Generate("q", DefaultConfig(60_000))
	prof := DefaultLongReads()
	prof.MeanLen = 1_000
	reads, err := SimulateReads(g, 5, prof)
	if err != nil {
		t.Fatal(err)
	}
	var headSum, tailSum, headN, tailN int
	for _, r := range reads {
		if len(r.Qual) < 200 {
			continue
		}
		for i := 0; i < 100; i++ {
			headSum += fastq.Phred(r.Qual[i])
			headN++
		}
		for i := len(r.Qual) - 10; i < len(r.Qual); i++ {
			tailSum += fastq.Phred(r.Qual[i])
			tailN++
		}
	}
	if headN == 0 {
		t.Fatal("no long reads sampled")
	}
	headAvg := float64(headSum) / float64(headN)
	tailAvg := float64(tailSum) / float64(tailN)
	if headAvg < 30 {
		t.Fatalf("head quality %.1f, want plateau ≈38", headAvg)
	}
	if tailAvg >= headAvg-5 {
		t.Fatalf("tail quality %.1f not degraded vs head %.1f", tailAvg, headAvg)
	}
}

func TestErrorsConcentrateInLowQualityTail(t *testing.T) {
	// Compare each read against the genome: mismatches must be denser in
	// the degraded tail than in the plateau.
	cfg := DefaultConfig(50_000)
	cfg.RepeatFraction = 0
	g, _ := Generate("q", cfg)
	prof := DefaultLongReads()
	prof.MeanLen = 1_500
	prof.ErrRate = 0.001
	prof.ForwardOnly = true // alignable by construction
	reads, err := SimulateReads(g, 8, prof)
	if err != nil {
		t.Fatal(err)
	}
	ref := string(g.Seq)
	var headErr, headN, tailErr, tailN int
	for _, r := range reads {
		pos := alignPrefix(ref, r.Seq)
		if pos < 0 {
			continue
		}
		n := len(r.Seq)
		tail := n / 20
		for i := 0; i < n; i++ {
			mismatch := r.Seq[i] != ref[pos+i]
			if i >= n-tail {
				tailN++
				if mismatch {
					tailErr++
				}
			} else {
				headN++
				if mismatch {
					headErr++
				}
			}
		}
	}
	if headN == 0 || tailN == 0 {
		t.Fatal("alignment failed for all reads")
	}
	headRate := float64(headErr) / float64(headN)
	tailRate := float64(tailErr) / float64(tailN)
	if tailRate < 4*headRate {
		t.Fatalf("tail error rate %.4f not ≫ head %.4f", tailRate, headRate)
	}
}

// alignPrefix locates a read in the reference by its first 30 bases
// (error-free with high probability at plateau quality).
func alignPrefix(ref string, seq []byte) int {
	if len(seq) < 40 {
		return -1
	}
	idx := indexOf(ref, string(seq[:30]))
	if idx < 0 || idx+len(seq) > len(ref) {
		return -1
	}
	return idx
}

func indexOf(hay, needle string) int {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

func TestTrimmingReducesSingletons(t *testing.T) {
	// End-to-end value of quality trimming: counting trimmed reads must
	// produce fewer singleton (error) k-mers per base than raw reads.
	g, _ := Generate("q", DefaultConfig(40_000))
	prof := DefaultLongReads()
	prof.MeanLen = 800
	reads, err := SimulateReads(g, 10, prof)
	if err != nil {
		t.Fatal(err)
	}
	singletonRate := func(rs []fastq.Record) float64 {
		counts := map[dna.Kmer]int{}
		bases := 0
		for _, r := range rs {
			bases += len(r.Seq)
			kmer.ForEach(&dna.Random, r.Seq, 17, func(w dna.Kmer, _ int) { counts[w]++ })
		}
		singles := 0
		for _, c := range counts {
			if c == 1 {
				singles++
			}
		}
		return float64(singles) / float64(bases)
	}
	raw := singletonRate(reads)
	kept, err := fastq.Drain(fastq.NewTrimSource(fastq.NewSliceSource(reads), 20, 17))
	if err != nil {
		t.Fatal(err)
	}
	trimmed := singletonRate(kept)
	if trimmed >= raw {
		t.Fatalf("trimming did not reduce singleton rate: raw %.5f, trimmed %.5f", raw, trimmed)
	}
	t.Logf("singletons/base: raw %.5f -> trimmed %.5f", raw, trimmed)
}
