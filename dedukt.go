// Package dedukt is a distributed-memory k-mer counter with simulated GPU
// acceleration and supermer-compressed communication — a from-scratch Go
// reproduction of "Distributed-Memory k-mer Counting on GPUs" (Nisa,
// Pandey, Ellis, Oliker, Buluç, Yelick — IPDPS 2021).
//
// This package is the stable public facade; the implementation lives in
// the internal packages (see DESIGN.md for the full inventory):
//
//   - internal/dna, kmer, minimizer, kcount — the counting algorithms;
//   - internal/gpusim, mpisim, cluster — the simulated Summit substrate;
//   - internal/pipeline — the four end-to-end counters;
//   - internal/genome, fastq — synthetic datasets and I/O;
//   - internal/expt — the paper's tables and figures.
//
// # Quick start
//
//	reads, _ := dedukt.ReadFile("reads.fastq")
//	res, err := dedukt.Count(reads, dedukt.DefaultOptions(4))
//	if err != nil { ... }
//	fmt.Println(res.DistinctKmers, res.Modeled.Total())
//
// See examples/ for complete programs.
package dedukt

import (
	"io"

	"dedukt/internal/cluster"
	"dedukt/internal/dna"
	"dedukt/internal/fastq"
	"dedukt/internal/genome"
	"dedukt/internal/kcount"
	"dedukt/internal/minimizer"
	"dedukt/internal/pipeline"
	recov "dedukt/internal/recover"
)

// Core types, re-exported from the implementation packages. External callers
// use them through these names; the internal import paths stay private.
type (
	// Read is one sequencing read (ID, bases, optional qualities).
	Read = fastq.Record
	// Options configures a counting run; see DefaultOptions.
	Options = pipeline.Config
	// Result is the outcome of a run: histogram, phase breakdown, volumes.
	Result = pipeline.Result
	// Mode selects the exchanged unit (KmerMode or SupermerMode).
	Mode = pipeline.Mode
	// Layout describes the simulated machine.
	Layout = cluster.Layout
	// Histogram is a k-mer frequency spectrum.
	Histogram = kcount.Histogram
	// Dataset is a scaled synthetic equivalent of a paper dataset.
	Dataset = genome.Dataset
	// Kmer is a 2-bit-packed k-mer word.
	Kmer = dna.Kmer
	// Source yields reads one at a time for CountStream; see OpenStream.
	Source = fastq.Source
	// CkptConfig (Options.Ckpt) enables round-granularity checkpointing
	// and rank-death recovery for CountStream; see Resume.
	CkptConfig = pipeline.CkptConfig
	// Cursor is a replayable position in a read stream; CkptConfig.Reopen
	// receives one to fast-forward the input on resume or replay.
	Cursor = fastq.Cursor
	// InputFile fingerprints one input path (path and size) so a
	// checkpoint refuses to resume over changed inputs.
	InputFile = recov.InputFile
)

// Exchange modes.
const (
	// KmerMode ships individual packed k-mers (the paper's Alg. 1).
	KmerMode = pipeline.KmerMode
	// SupermerMode ships minimizer-partitioned supermers (Alg. 2) —
	// the paper's headline optimization.
	SupermerMode = pipeline.SupermerMode
)

// SummitGPU returns the paper's GPU machine configuration: nodes × 6
// simulated V100 ranks with the calibrated Summit fabric.
func SummitGPU(nodes int) Layout { return cluster.SummitGPU(nodes) }

// SummitCPU returns the paper's CPU baseline configuration: nodes × 42
// Power9 core ranks.
func SummitCPU(nodes int) Layout { return cluster.SummitCPU(nodes) }

// DefaultOptions returns the paper's operating point — k=17, supermers with
// m=7 and window 15, the random base encoding — on a GPU machine of the
// given node count.
func DefaultOptions(nodes int) Options {
	return pipeline.Default(cluster.SummitGPU(nodes), pipeline.SupermerMode)
}

// Count runs the distributed counting pipeline over the reads and returns
// the global result. Counting is bit-exact (validated against a serial
// oracle); timing is Summit-projected by the calibrated cost models.
func Count(reads []Read, opts Options) (*Result, error) {
	return pipeline.Run(opts, reads)
}

// CountStream runs the counting pipeline over a read source without
// materializing the input: ranks pull bounded chunks on demand and the
// live working set stays under Options.MemBudgetBytes regardless of
// input size. The counted spectrum is bit-identical to Count over the
// same reads. BalancedPartition, which needs the whole input up front, is
// rejected.
func CountStream(src Source, opts Options) (*Result, error) {
	return pipeline.RunStream(opts, src)
}

// Resume continues an interrupted CountStream run from the checkpoint
// directory in opts.Ckpt.Dir. The options must match the checkpointed
// run (k, mode, engine, ranks, inputs — validated against the manifest's
// fingerprint); opts.Ckpt.Reopen supplies the fast-forwarded source. The
// completed spectrum is bit-identical to an unfaulted run over the same
// reads.
func Resume(opts Options) (*Result, error) {
	return pipeline.ResumeStream(opts)
}

// OpenStream opens FASTQ/FASTA files as one concatenated read source for
// CountStream. Gzip compression is detected per file by magic bytes, so
// mixed plain and compressed inputs work regardless of suffix. Close the
// stream when done.
func OpenStream(paths ...string) (*fastq.Stream, error) {
	return fastq.OpenStream(paths...)
}

// ReadFile loads every read of a FASTQ or FASTA file, plain or gzip
// (detected by magic bytes, whatever the file's name).
func ReadFile(path string) ([]Read, error) {
	r, err := fastq.OpenStream(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []Read
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec.Clone())
	}
}

// Datasets returns the scaled synthetic equivalents of the paper's Table I.
func Datasets() []Dataset { return genome.Table1() }

// DatasetByName finds a Table I dataset ("E. coli 30X", "H. sapien 54X", ...).
func DatasetByName(name string) (Dataset, error) { return genome.DatasetByName(name) }

// KmerString decodes a packed k-mer of length k counted under the default
// (random) encoding.
func KmerString(w Kmer, k int) string { return w.String(&dna.Random, k) }

// ParseKmer encodes an ACGT string of length ≤ 32 under the default
// encoding.
func ParseKmer(s string) (Kmer, error) { return dna.KmerFromString(&dna.Random, s) }

// OrderingByName returns a minimizer ordering for Options.Ord: "value"
// (the paper's random-encoding order), "kmc2", or "hashed".
func OrderingByName(name string) (minimizer.Ordering, error) {
	return minimizer.ByName(name, &dna.Random)
}

// Validate checks opts without running anything.
func Validate(opts Options) error { return opts.Validate() }

// Version identifies this reproduction.
const Version = "1.0.0"
