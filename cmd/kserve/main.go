// Command kserve serves counted k-mer spectra (KCD databases, see
// cmd/kmertools and dedukt -okcd) over HTTP from a prefix index built at
// load (about 4 B per k-mer; the loaded database is not kept): every lookup
// searches one small prefix bucket, behind an in-flight bound that sheds
// load with 429s; -shard keeps only one slice of the key space (split by
// the pipeline's exchange owner hash) for use behind cmd/kproxy.
//
//	dedukt -okcd counts.kcd && kserve -kcd counts.kcd -addr :8080
//	kserve -kcd a.kcd -kcd b.kcd      # union of compatible databases
//
//	curl localhost:8080/kmer/ACGTACGTACGTACGTA
//	curl -X POST localhost:8080/batch -d '{"kmers":["ACGTACGTACGTACGTA"]}'
//	curl localhost:8080/histogram
//	curl localhost:8080/topn?n=10
//	curl localhost:8080/metrics
//
// SIGINT/SIGTERM drains gracefully: in-flight requests finish, then the
// process exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dedukt/internal/dna"
	"dedukt/internal/durable"
	"dedukt/internal/kserve"
	"dedukt/internal/obs"
	"dedukt/internal/stats"
)

// pathList collects repeated -kcd flags.
type pathList []string

func (p *pathList) String() string     { return strings.Join(*p, ",") }
func (p *pathList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("kserve: ")
	var kcds pathList
	flag.Var(&kcds, "kcd", "KCD database to serve (repeatable; multiple files are unioned)")
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		queue       = flag.Int("queue", 1024, "requests in flight at once before 429s")
		topN        = flag.Int("topn", 64, "top-N horizon precomputed for /topn")
		encoding    = flag.String("encoding", "random", "base encoding the KCD was packed under: random (CLI default) or lex")
		shard       = flag.String("shard", "", "cluster shard to serve as IDX/OF (e.g. 0/2): keep only keys owned by that slice of the key space; empty serves everything")
		replicaID   = flag.String("replica-id", "", "replica name reported in /healthz (default host-pid)")
		drainGrace  = flag.Duration("drain-grace", 0, "handoff window between SIGTERM (healthz goes 503 draining) and shutdown, so a router can move traffic off this replica first")
		slow        = flag.Duration("slow", 0, "TESTING ONLY: hold every admitted /kmer and /batch lookup this long (straggler injection for hedging tests)")
		traceSample = flag.Int("trace-sample", 0, "enable request tracing: root a span for 1-in-N headerless requests; incoming sampled traceparents are always continued (0 disables rooting; tracing stays on if -trace-out is set)")
		traceOut    = flag.String("trace-out", "", "write the recorded span buffer to this file on exit (tracing also serves /debug/trace live)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off by default; e.g. 127.0.0.1:6060)")
	)
	flag.Parse()
	kcds = append(kcds, flag.Args()...)
	if len(kcds) == 0 {
		log.Fatal("at least one -kcd database is required")
	}

	enc, err := dna.EncodingByName(*encoding)
	if err != nil {
		log.Fatal(err)
	}

	db, err := kserve.LoadDatabases(kcds)
	if err != nil {
		log.Fatal(err)
	}
	shardIdx, shardCount := 0, 1
	if *shard != "" {
		if _, err := fmt.Sscanf(*shard, "%d/%d", &shardIdx, &shardCount); err != nil {
			log.Fatalf("bad -shard %q, want IDX/OF like 0/2", *shard)
		}
		if db, err = kserve.FilterShard(db, shardIdx, shardCount); err != nil {
			log.Fatal(err)
		}
	}
	if *replicaID == "" {
		host, _ := os.Hostname()
		*replicaID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var tracer *obs.Tracer
	if *traceSample > 0 || *traceOut != "" {
		tracer = obs.NewTracer(*replicaID, *traceSample)
	}
	obs.ServePprof(*pprofAddr, log.Printf)
	svc, err := kserve.New(db, kserve.Options{
		QueueDepth: *queue,
		TopN:       *topN,
		Enc:        enc,
		ReplicaID:  *replicaID,
		ShardIndex: shardIdx,
		ShardCount: shardCount,
		DrainGrace: *drainGrace,
		Slow:       *slow,
		Tracer:     tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	obs.RegisterBuildInfo(svc.Registry(), "kserve")
	log.Printf("replica %s serving %s distinct %d-mers (%s, cluster shard %d/%d) from %d file(s)",
		*replicaID, stats.Count(svc.Distinct()), svc.K(), canonicalLabel(svc.Canonical()),
		shardIdx, shardCount, len(kcds))
	serveErr := kserve.ServeUntilInterrupt(*addr, svc, log.Printf)
	if tracer != nil && *traceOut != "" {
		// Written after the drain so the dump holds the whole run (trace
		// dumps survive a serve error too — that's when they matter most).
		if err := durable.WriteFile(*traceOut, tracer.WriteSpans); err != nil {
			log.Printf("trace-out: %v", err)
		} else {
			log.Printf("wrote %d spans to %s", tracer.Len(), *traceOut)
		}
	}
	if serveErr != nil {
		log.Fatal(serveErr)
	}
}

func canonicalLabel(c bool) string {
	if c {
		return "canonical"
	}
	return "as counted"
}
