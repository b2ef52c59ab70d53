// Command kmertools operates on KCD k-mer count databases, mirroring the
// workflow of KMC3's kmc_tools (the state-of-the-art tool the paper
// discusses in §VI):
//
//	kmertools count -in reads.fastq -k 17 -o db.kcd [-canonical] [-min 2]
//	kmertools info -db db.kcd
//	kmertools histo -db db.kcd
//	kmertools dump -db db.kcd [-n 20]
//	kmertools lookup -db db.kcd ACGTACGTACGTACGTA ...   (or k-mers on stdin)
//	kmertools intersect|union|subtract -a x.kcd -b y.kcd -o out.kcd
//	kmertools filter -db db.kcd -min 3 -max 1000 -o out.kcd
//	kmertools trace-join -o joined.json kload.json kproxy.json replica*.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dedukt/internal/dna"
	"dedukt/internal/durable"
	"dedukt/internal/fastq"
	"dedukt/internal/kcount"
	"dedukt/internal/kmer"
	"dedukt/internal/obs"
	"dedukt/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kmertools: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "count":
		err = runCount(args)
	case "info":
		err = runInfo(args)
	case "histo":
		err = runHisto(args)
	case "dump":
		err = runDump(args)
	case "lookup":
		err = runLookup(args)
	case "intersect", "union", "subtract":
		err = runSetOp(cmd, args)
	case "filter":
		err = runFilter(args)
	case "trace-join":
		err = runTraceJoin(args)
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kmertools <count|info|histo|dump|lookup|intersect|union|subtract|filter|trace-join> [flags]")
	os.Exit(2)
}

func loadDB(path string) (*kcount.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kcount.ReadDatabase(f)
}

func saveDB(path string, d *kcount.Database) error {
	return durable.WriteFile(path, d.Write)
}

func runCount(args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	in := fs.String("in", "", "input FASTQ/FASTA, plain or gzip")
	k := fs.Int("k", 17, "k-mer length (1..32)")
	out := fs.String("o", "", "output KCD path")
	canonical := fs.Bool("canonical", false, "count canonical k-mers")
	min := fs.Uint("min", 1, "drop k-mers below this count")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("count: -in and -o are required")
	}
	if *k <= 0 || *k > dna.MaxK {
		return fmt.Errorf("count: k=%d outside (0,%d]", *k, dna.MaxK)
	}
	r, err := fastq.OpenStream(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	table := kcount.NewTable(1024, kcount.Linear)
	nReads := 0
	for {
		rec, rerr := r.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
		nReads++
		kmer.ForEach(&dna.Random, rec.Seq, *k, func(w dna.Kmer, _ int) {
			key := uint64(w)
			if *canonical {
				key = uint64(w.Canonical(&dna.Random, *k))
			}
			table.Inc(key)
		})
	}
	var flags uint32
	if *canonical {
		flags |= kcount.FlagCanonical
	}
	d := kcount.FromTable(table, *k, flags)
	if *min > 1 {
		d = kcount.FilterCounts(d, uint32(*min), 0)
	}
	if err := saveDB(*out, d); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kmertools: counted %d reads -> %s distinct k-mers -> %s\n",
		nReads, stats.Count(uint64(d.Len())), *out)
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	db := fs.String("db", "", "KCD path")
	fs.Parse(args)
	d, err := loadDB(*db)
	if err != nil {
		return err
	}
	h := d.Histogram()
	fmt.Printf("k:           %d\n", d.K)
	fmt.Printf("canonical:   %v\n", d.Canonical())
	fmt.Printf("distinct:    %s\n", stats.Count(uint64(d.Len())))
	fmt.Printf("total count: %s\n", stats.Count(h.Total()))
	fmt.Printf("singletons:  %s\n", stats.Count(h.Singletons()))
	return nil
}

func runHisto(args []string) error {
	fs := flag.NewFlagSet("histo", flag.ExitOnError)
	db := fs.String("db", "", "KCD path")
	max := fs.Int("max", 100, "largest frequency class to print")
	fs.Parse(args)
	d, err := loadDB(*db)
	if err != nil {
		return err
	}
	h := d.Histogram()
	for _, f := range h.Frequencies() {
		if int(f) > *max {
			break
		}
		fmt.Printf("%d\t%d\n", f, h.Counts[f])
	}
	return nil
}

func runDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	db := fs.String("db", "", "KCD path")
	n := fs.Int("n", 0, "dump at most N entries (0 = all)")
	fs.Parse(args)
	d, err := loadDB(*db)
	if err != nil {
		return err
	}
	limit := len(d.Entries)
	if *n > 0 && *n < limit {
		limit = *n
	}
	for _, e := range d.Entries[:limit] {
		fmt.Printf("%s\t%d\n", dna.Kmer(e.Key).String(&dna.Random, d.K), e.Count)
	}
	return nil
}

// runLookup resolves ASCII k-mers against a KCD from the command line —
// the batch twin of kserve's GET /kmer/{seq}, sharing the same
// kcount.ParseQuery path (length check, packing, canonical folding).
// K-mers come from the argument list, or from stdin (whitespace-separated)
// when no arguments are given.
func runLookup(args []string) error {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	db := fs.String("db", "", "KCD path")
	strict := fs.Bool("strict", false, "fail on the first malformed k-mer instead of reporting and continuing")
	fs.Parse(args)
	d, err := loadDB(*db)
	if err != nil {
		return err
	}
	lookupOne := func(seq string) error {
		key, err := kcount.ParseQuery(&dna.Random, d.K, d.Canonical(), seq)
		if err != nil {
			if *strict {
				return err
			}
			fmt.Fprintf(os.Stderr, "kmertools: %v\n", err)
			fmt.Printf("%s\tERR\n", seq)
			return nil
		}
		fmt.Printf("%s\t%d\n", seq, d.Get(key))
		return nil
	}
	if fs.NArg() > 0 {
		for _, seq := range fs.Args() {
			if err := lookupOne(seq); err != nil {
				return err
			}
		}
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		if err := lookupOne(sc.Text()); err != nil {
			return err
		}
	}
	return sc.Err()
}

func runSetOp(op string, args []string) error {
	fs := flag.NewFlagSet(op, flag.ExitOnError)
	aPath := fs.String("a", "", "first operand")
	bPath := fs.String("b", "", "second operand")
	out := fs.String("o", "", "output KCD path")
	fs.Parse(args)
	if *aPath == "" || *bPath == "" || *out == "" {
		return fmt.Errorf("%s: -a, -b and -o are required", op)
	}
	a, err := loadDB(*aPath)
	if err != nil {
		return err
	}
	b, err := loadDB(*bPath)
	if err != nil {
		return err
	}
	var d *kcount.Database
	switch op {
	case "intersect":
		d, err = kcount.Intersect(a, b)
	case "union":
		d, err = kcount.Union(a, b)
	case "subtract":
		d, err = kcount.Subtract(a, b)
	}
	if err != nil {
		return err
	}
	if err := saveDB(*out, d); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kmertools: %s -> %s distinct k-mers -> %s\n", op, stats.Count(uint64(d.Len())), *out)
	return nil
}

func runFilter(args []string) error {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	db := fs.String("db", "", "KCD path")
	min := fs.Uint("min", 1, "minimum count")
	max := fs.Uint("max", 0, "maximum count (0 = unbounded)")
	out := fs.String("o", "", "output KCD path")
	fs.Parse(args)
	d, err := loadDB(*db)
	if err != nil {
		return err
	}
	filtered := kcount.FilterCounts(d, uint32(*min), uint32(*max))
	if err := saveDB(*out, filtered); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kmertools: kept %s of %s entries -> %s\n",
		stats.Count(uint64(filtered.Len())), stats.Count(uint64(d.Len())), *out)
	return nil
}

// runTraceJoin merges per-process request-trace dumps (written by kload,
// kproxy, and kserve via -trace-out or fetched from /debug/trace) into one
// Chrome trace-event JSON, viewable in Perfetto or chrome://tracing. Each
// process becomes a pid row; spans sharing a trace ID line up across rows.
func runTraceJoin(args []string) error {
	fs := flag.NewFlagSet("trace-join", flag.ExitOnError)
	out := fs.String("o", "", "output trace-event JSON path (default stdout)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("trace-join: at least one trace dump is required")
	}
	var dumps []obs.TraceDump
	var spans int
	var dropped uint64
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		d, err := obs.ReadTraceDump(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("trace-join: %s: %w", path, err)
		}
		spans += len(d.Spans)
		dropped += d.Dropped
		dumps = append(dumps, d)
	}
	join := func(w io.Writer) error { return obs.JoinTraces(w, dumps) }
	var err error
	if *out == "" {
		err = join(os.Stdout)
	} else {
		err = durable.WriteFile(*out, join)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "kmertools: joined %d spans from %d process(es)", spans, len(dumps))
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, " (%d dropped at capture)", dropped)
	}
	fmt.Fprintln(os.Stderr)
	return nil
}
