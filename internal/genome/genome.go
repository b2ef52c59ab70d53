// Package genome synthesizes reference genomes and sequencing reads.
//
// The paper evaluates on six real datasets (Table I) up to the 317 GB
// H. sapiens 54× FASTQ. Those inputs are a data gate for this reproduction,
// so the package substitutes synthetic equivalents that preserve exactly the
// properties every measured quantity depends on:
//
//   - coverage (how many times each genomic k-mer is resampled),
//   - read length distribution (3rd-generation long reads, §VI),
//   - repeat structure of the genome (the source of k-mer/minimizer skew
//     that drives the paper's load-imbalance results, Table III),
//   - total input volume (scaled down by a documented factor).
//
// Generation is fully deterministic given a seed.
package genome

import (
	"fmt"
	"math"
	"math/rand"

	"dedukt/internal/fastq"
)

// Config controls synthetic genome generation.
type Config struct {
	// Length is the genome length in bases.
	Length int
	// RepeatFraction is the fraction of the genome covered by copies of
	// repeat units (0 = uniform random genome). Higher values produce the
	// heavier k-mer multiplicity skew of complex genomes.
	RepeatFraction float64
	// RepeatMinLen and RepeatMaxLen bound the length of each repeat unit.
	RepeatMinLen, RepeatMaxLen int
	// RepeatCopies is the number of copies per repeat family (default 10).
	// Keeping per-family copy number fixed while the number of families
	// scales with genome length makes k-mer multiplicities scale with the
	// genome — matching how the per-rank hot-k-mer share behaves on the
	// full-size inputs rather than concentrating whole-genome multiplicity
	// into a scaled-down rank.
	RepeatCopies int
	// RepeatDivergence is the per-base substitution rate applied to each
	// repeat copy (default 0.02), modelling diverged repeat families.
	RepeatDivergence float64
	// GC is the target G+C fraction of random sequence (0.5 = unbiased).
	GC float64
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultConfig returns a bacteria-like configuration of the given length.
func DefaultConfig(length int) Config {
	return Config{
		Length:         length,
		RepeatFraction: 0.05,
		RepeatMinLen:   200,
		RepeatMaxLen:   2000,
		GC:             0.5,
		Seed:           1,
	}
}

func (c Config) validate() error {
	if c.Length <= 0 {
		return fmt.Errorf("genome: non-positive length %d", c.Length)
	}
	if c.RepeatFraction < 0 || c.RepeatFraction > 0.95 {
		return fmt.Errorf("genome: repeat fraction %.2f outside [0, 0.95]", c.RepeatFraction)
	}
	if c.GC <= 0 || c.GC >= 1 {
		return fmt.Errorf("genome: GC %.2f outside (0,1)", c.GC)
	}
	if c.RepeatFraction > 0 && (c.RepeatMinLen <= 0 || c.RepeatMaxLen < c.RepeatMinLen) {
		return fmt.Errorf("genome: invalid repeat unit bounds [%d,%d]", c.RepeatMinLen, c.RepeatMaxLen)
	}
	return nil
}

// Genome is a synthetic reference sequence.
type Genome struct {
	Name string
	Seq  []byte
}

// Generate builds a synthetic genome: a random ACGT backbone with repeat
// units copied to random positions until RepeatFraction of the genome is
// repeat-derived. Repeats are copied from a small dictionary of units, so
// k-mers inside them recur genome-wide — the behaviour that makes minimizer
// partitions skewed on real genomes.
func Generate(name string, cfg Config) (*Genome, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seq := make([]byte, cfg.Length)
	for i := range seq {
		seq[i] = randBase(rng, cfg.GC)
	}
	if cfg.RepeatFraction > 0 {
		copies := cfg.RepeatCopies
		if copies <= 0 {
			copies = 10
		}
		div := cfg.RepeatDivergence
		if div == 0 {
			div = 0.02
		}
		avgUnit := (cfg.RepeatMinLen + cfg.RepeatMaxLen) / 2
		target := int(cfg.RepeatFraction * float64(cfg.Length))
		nUnits := target / (avgUnit * copies)
		if nUnits < 1 {
			nUnits = 1
		}
		placed := 0
		for u := 0; u < nUnits || placed < target; u++ {
			ulen := cfg.RepeatMinLen
			if cfg.RepeatMaxLen > cfg.RepeatMinLen {
				ulen += rng.Intn(cfg.RepeatMaxLen - cfg.RepeatMinLen)
			}
			if ulen >= cfg.Length {
				break
			}
			unit := make([]byte, ulen)
			for j := range unit {
				unit[j] = randBase(rng, cfg.GC)
			}
			for c := 0; c < copies && placed < target+avgUnit; c++ {
				pos := rng.Intn(cfg.Length - ulen)
				copy(seq[pos:], unit)
				if div > 0 {
					// Diverge this copy from the family consensus.
					for j := pos; j < pos+ulen; j++ {
						if rng.Float64() < div {
							seq[j] = randBase(rng, cfg.GC)
						}
					}
				}
				placed += ulen
			}
			if placed >= target {
				break
			}
		}
	}
	return &Genome{Name: name, Seq: seq}, nil
}

func randBase(rng *rand.Rand, gc float64) byte {
	if rng.Float64() < gc {
		if rng.Intn(2) == 0 {
			return 'G'
		}
		return 'C'
	}
	if rng.Intn(2) == 0 {
		return 'A'
	}
	return 'T'
}

// ReadModel selects the sequencing technology being simulated.
type ReadModel int

const (
	// ShortReads models 2nd-generation sequencing: fixed-length reads
	// (typically 100–250 bp).
	ShortReads ReadModel = iota
	// LongReads models 3rd-generation sequencing: log-normally distributed
	// lengths in the 1,000–100,000 bp range (§VI). This is the regime of
	// the paper's diBELLA-derived pipeline.
	LongReads
)

func (m ReadModel) String() string {
	switch m {
	case ShortReads:
		return "short"
	case LongReads:
		return "long"
	default:
		return fmt.Sprintf("ReadModel(%d)", int(m))
	}
}

// ReadProfile describes the simulated sequencer.
type ReadProfile struct {
	Model ReadModel
	// MeanLen is the mean read length in bases.
	MeanLen int
	// Sigma is the log-normal shape parameter for LongReads (ignored for
	// ShortReads). Typical third-generation runs have sigma ≈ 0.4–0.6.
	Sigma float64
	// ErrRate is the per-base substitution error probability.
	ErrRate float64
	// AmbigRate is the per-base probability of an 'N' call, exercising the
	// pipelines' invalid-base handling.
	AmbigRate float64
	// ForwardOnly disables strand sampling. By default half the reads are
	// reverse-complemented, as a real sequencer samples both strands.
	ForwardOnly bool
	// Seed makes simulation reproducible.
	Seed int64
}

// DefaultLongReads returns a PacBio-like profile.
func DefaultLongReads() ReadProfile {
	return ReadProfile{Model: LongReads, MeanLen: 3000, Sigma: 0.5, ErrRate: 0.002, Seed: 2}
}

// DefaultShortReads returns an Illumina-like profile.
func DefaultShortReads() ReadProfile {
	return ReadProfile{Model: ShortReads, MeanLen: 150, ErrRate: 0.001, Seed: 2}
}

func (p ReadProfile) validate() error {
	if p.MeanLen <= 0 {
		return fmt.Errorf("genome: non-positive mean read length %d", p.MeanLen)
	}
	if p.ErrRate < 0 || p.ErrRate > 0.5 {
		return fmt.Errorf("genome: error rate %.3f outside [0, 0.5]", p.ErrRate)
	}
	if p.AmbigRate < 0 || p.AmbigRate > 0.5 {
		return fmt.Errorf("genome: ambiguity rate %.3f outside [0, 0.5]", p.AmbigRate)
	}
	return nil
}

// SimulateReads samples reads from g to the requested coverage depth
// (total read bases ≈ coverage × genome length). Read start positions are
// uniform; lengths follow the profile; substitution and N errors are applied
// per base.
func SimulateReads(g *Genome, coverage float64, p ReadProfile) ([]fastq.Record, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if coverage <= 0 {
		return nil, fmt.Errorf("genome: non-positive coverage %.2f", coverage)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	targetBases := int(coverage * float64(len(g.Seq)))
	var out []fastq.Record
	bases := 0
	for i := 0; bases < targetBases; i++ {
		rlen := p.sampleLen(rng)
		if rlen > len(g.Seq) {
			rlen = len(g.Seq)
		}
		start := 0
		if len(g.Seq) > rlen {
			start = rng.Intn(len(g.Seq) - rlen)
		}
		seq := make([]byte, rlen)
		copy(seq, g.Seq[start:start+rlen])
		if !p.ForwardOnly && rng.Intn(2) == 1 {
			reverseComplement(seq)
		}
		qual := sampleQualities(rng, rlen)
		applyErrors(rng, seq, qual, p)
		out = append(out, fastq.Record{
			ID:   fmt.Sprintf("%s_read%d", g.Name, i),
			Seq:  seq,
			Qual: qual,
		})
		bases += rlen
	}
	return out, nil
}

// sampleQualities draws per-base phred scores: a high plateau (~38) with
// small jitter, decaying toward ~8 over the last 5% of the read — the
// degraded 3' tail real chemistry produces. Base-call errors are sampled
// from these scores in applyErrors, so quality trimming (fastq.TrimQuality)
// genuinely removes the error-dense region.
func sampleQualities(rng *rand.Rand, n int) []byte {
	const (
		plateau = 38
		tailMin = 8
		offset  = 33 // Sanger phred offset
	)
	qual := make([]byte, n)
	tail := n / 20
	if tail < 1 {
		tail = 1
	}
	for i := range qual {
		q := float64(plateau) + rng.NormFloat64()*2
		if left := n - i; left <= tail {
			// Linear decay across the tail.
			frac := float64(left) / float64(tail)
			q = tailMin + (q-tailMin)*frac
		}
		if q < 2 {
			q = 2
		}
		if q > 41 {
			q = 41
		}
		qual[i] = byte(int(q) + offset)
	}
	return qual
}

func (p ReadProfile) sampleLen(rng *rand.Rand) int {
	switch p.Model {
	case ShortReads:
		return p.MeanLen
	case LongReads:
		// Log-normal with the requested mean: mean = exp(mu + sigma^2/2).
		mu := math.Log(float64(p.MeanLen)) - p.Sigma*p.Sigma/2
		l := int(math.Exp(rng.NormFloat64()*p.Sigma + mu))
		if l < 100 {
			l = 100
		}
		return l
	default:
		panic(fmt.Sprintf("genome: unknown read model %d", int(p.Model)))
	}
}

// complement maps each base to its Watson–Crick partner; every other byte
// maps to itself.
var complement = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	t['A'], t['T'], t['C'], t['G'] = 'T', 'A', 'G', 'C'
	return t
}()

// reverseComplement flips seq to the opposite strand in place.
func reverseComplement(seq []byte) {
	for i, j := 0, len(seq)-1; i <= j; i, j = i+1, j-1 {
		seq[i], seq[j] = complement[seq[j]], complement[seq[i]]
	}
}

// applyErrors introduces base-call errors: each base errs with probability
// max(ErrRate, 10^(-q/10)) — the configured floor or what its quality score
// claims, whichever is larger — so low-quality tails are error-dense.
func applyErrors(rng *rand.Rand, seq, qual []byte, p ReadProfile) {
	const bases = "ACGT"
	for i := range seq {
		if p.AmbigRate > 0 && rng.Float64() < p.AmbigRate {
			seq[i] = 'N'
			continue
		}
		prob := p.ErrRate
		if fromQ := qualErr[qual[i]]; fromQ > prob {
			prob = fromQ
		}
		if prob > 0 && rng.Float64() < prob {
			// Substitute with one of the three other bases.
			b := seq[i]
			for {
				nb := bases[rng.Intn(4)]
				if nb != b {
					seq[i] = nb
					break
				}
			}
		}
	}
}

// qualErr[c] is the error probability 10^(-q/10) that the quality byte c
// (phred q = c-33) claims; from q = 45 on it is 0, so such scores never
// raise the ErrRate floor.
var qualErr = func() (t [256]float64) {
	for c := range t {
		if q := float64(c) - 33; q < 45 {
			t[c] = pow10neg(q / 10)
		}
	}
	return t
}()

// pow10neg returns 10^(-x).
func pow10neg(x float64) float64 { return math.Exp(-x * math.Ln10) }
