package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
)

// The paper's operating point; every workload uses it.
const (
	kmerLen   = 17
	minLen    = 7
	windowLen = 15
	topN      = 64
)

// subSeed derives the seed of one generated input from the run's --seed, so
// genome, reads and key draws are independent but all fixed by it.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

const (
	seedGenome = iota + 1
	seedReads
	seedKeys
)

// dataset is one generated read set.
type dataset struct {
	name  string
	reads []fastq.Record
	bases uint64
}

// oracleSummary is what a counting repetition is checked against: the
// kcount.SerialCount spectrum reduced to the four Result fields the issue
// names. It travels to the child in the manifest.
type oracleSummary struct {
	Total    uint64            `json:"total_kmers"`
	Distinct uint64            `json:"distinct_kmers"`
	Hist     map[uint32]uint64 `json:"histogram"`
	Top      []kcount.KV       `json:"top_kmers"`
}

// generate builds lr8 or hs54 from seed. scale < 1 shrinks the genome for
// -quick; the shapes stay.
//
//	lr8:  1 Mb genome, repeat fraction 0.2, 8x, 800-base reads, 0.2% N
//	      (insert-heavy: ~2.0 M distinct of ~7.6 M k-mers, tables larger than L2)
//	hs54: the "H. sapien 54X" shape of genome.Table1: 110 kb genome, repeat
//	      fraction 0.45, 54x, 150-base reads (increment-heavy, skewed minimizers)
func generate(name string, seed int64, scale float64) (*dataset, error) {
	var (
		gcfg     genome.Config
		prof     genome.ReadProfile
		coverage float64
	)
	switch name {
	case "lr8":
		gcfg = genome.Config{Length: 1_000_000, RepeatFraction: 0.2, RepeatMinLen: 100, RepeatMaxLen: 400}
		prof = genome.ReadProfile{Model: genome.ShortReads, MeanLen: 800, ErrRate: 0.002, AmbigRate: 0.002}
		coverage = 8
	case "hs54":
		gcfg = genome.Config{Length: 110_000, RepeatFraction: 0.45, RepeatMinLen: 100, RepeatMaxLen: 400}
		prof = genome.ReadProfile{Model: genome.ShortReads, MeanLen: 150, ErrRate: 0.002}
		coverage = 54
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	gcfg.Length = int(float64(gcfg.Length) * scale)
	gcfg.GC = 0.5
	gcfg.Seed = subSeed(seed, seedGenome)
	prof.Seed = subSeed(seed, seedReads)
	g, err := genome.Generate(name, gcfg)
	if err != nil {
		return nil, err
	}
	reads, err := genome.SimulateReads(g, coverage, prof)
	if err != nil {
		return nil, err
	}
	d := &dataset{name: name, reads: reads}
	for _, r := range reads {
		d.bases += uint64(len(r.Seq))
	}
	return d, nil
}

// serialSpectrum is the oracle: kcount.SerialCount over the reads.
func serialSpectrum(reads []fastq.Record) map[dna.Kmer]uint32 {
	seqs := make([][]byte, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	return kcount.SerialCount(&dna.Random, seqs, kmerLen)
}

// countOracle runs the serial oracle over the reads and reduces it; the
// spectrum itself is dropped.
func countOracle(reads []fastq.Record) *oracleSummary {
	counts := serialSpectrum(reads)
	o := &oracleSummary{Distinct: uint64(len(counts)), Hist: map[uint32]uint64{}}
	for _, c := range counts {
		o.Total += uint64(c)
		o.Hist[c]++
	}
	// Top-N without sorting ~2 M entries: only keys at or above the N-th
	// largest count can make the list.
	cut := nthLargestCount(o.Hist, topN)
	for key, c := range counts {
		if c >= cut {
			o.Top = append(o.Top, kcount.KV{Key: uint64(key), Count: c})
		}
	}
	sort.Slice(o.Top, func(i, j int) bool {
		if o.Top[i].Count != o.Top[j].Count {
			return o.Top[i].Count > o.Top[j].Count
		}
		return o.Top[i].Key < o.Top[j].Key
	})
	if len(o.Top) > topN {
		o.Top = o.Top[:topN]
	}
	return o
}

// nthLargestCount returns the count value of the n-th most frequent k-mer
// given the frequency spectrum (1 if there are fewer than n k-mers).
func nthLargestCount(hist map[uint32]uint64, n int) uint32 {
	freqs := make([]uint32, 0, len(hist))
	for f := range hist {
		freqs = append(freqs, f)
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	var seen uint64
	for _, f := range freqs {
		seen += hist[f]
		if seen >= uint64(n) {
			return f
		}
	}
	return 1
}

// writeReads stores the reads for the child. A streamed workload gets them
// split over two files, the first plain FASTQ and the second
// gzip-compressed; an in-memory one gets one plain file.
func (d *dataset) writeReads(dir string, streamed bool) ([]string, error) {
	if !streamed {
		path := filepath.Join(dir, d.name+".fastq")
		return []string{path}, writeFastq(path, d.reads, false)
	}
	half := len(d.reads) / 2
	plain := filepath.Join(dir, d.name+"_a.fastq")
	gz := filepath.Join(dir, d.name+"_b.fastq.gz")
	if err := writeFastq(plain, d.reads[:half], false); err != nil {
		return nil, err
	}
	if err := writeFastq(gz, d.reads[half:], true); err != nil {
		return nil, err
	}
	return []string{plain, gz}, nil
}

// loadReads reads FASTQ files back, plain or gzip, in order.
func loadReads(paths []string) ([]fastq.Record, error) {
	src, err := fastq.OpenStream(paths...)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var reads []fastq.Record
	for {
		rec, err := src.Next()
		if errors.Is(err, io.EOF) {
			return reads, nil
		} else if err != nil {
			return nil, err
		}
		reads = append(reads, rec.Clone())
	}
}

func writeFastq(path string, reads []fastq.Record, compress bool) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := fastq.NewWriter(f)
	var zw *gzip.Writer
	if compress {
		// BestSpeed: set-up time is a gated metric and the decoder's cost
		// does not depend on the level.
		if zw, err = gzip.NewWriterLevel(f, gzip.BestSpeed); err != nil {
			return err
		}
		w = fastq.NewWriter(zw)
	}
	for _, r := range reads {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if zw != nil {
		return zw.Close()
	}
	return nil
}
