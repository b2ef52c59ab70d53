// Command kload drives a kproxy (or a bare kserve replica — both speak
// GET /kmer and POST /batch) with a reproducible synthetic workload and
// prints a JSON latency/throughput summary.
//
//	kload -kcd counts.kcd -target http://127.0.0.1:9090 -n 100000 -batch 64 -c 16
//	kload -kcd counts.kcd -target http://127.0.0.1:9090 -n 50000 -qps 20000   # open loop
//
// Keys are sampled, under a zipfian (default) or uniform mix, from a fixed
// population drawn out of the KCD the target serves, so every lookup is
// of a k-mer the cluster holds (the summary's "present" says how many
// were answered so). With -qps the
// harness runs open-loop: every request has a scheduled arrival time and
// latency is measured from that schedule, so server stalls show up as the
// queueing delay they caused instead of being silently absorbed
// (coordinated omission). The summary counts request-level failures and
// per-key degradation markers separately, matching kproxy's partial-batch
// contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"dedukt/internal/kcluster"
	"dedukt/internal/kserve"
	"dedukt/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kload: ")
	var (
		target = flag.String("target", "http://127.0.0.1:9090", "base URL of the kproxy (or kserve) under load")
		kcd    = flag.String("kcd", "", "the KCD the target serves; lookup keys are drawn from its entries (required)")
		n      = flag.Int("n", 10000, "measured requests")
		warmup = flag.Int("warmup", 0, "untimed warmup requests (fills the proxy's hedge latency histogram)")
		batch  = flag.Int("batch", 1, "lookups per request (1 = GET /kmer, >1 = POST /batch)")
		conc   = flag.Int("c", 8, "concurrent workers")
		qps    = flag.Float64("qps", 0, "open-loop offered rate in lookups/sec (0 = closed loop)")
		keys   = flag.Int("keys", 65536, "sampled key-population size")
		dist   = flag.String("dist", "zipf", "key mix: zipf or uniform")
		zipfS  = flag.Float64("zipf-s", 1.1, "zipfian skew (>1)")
		seed   = flag.Int64("seed", 1, "population/mix seed")
		quiet  = flag.Bool("q", false, "suppress progress lines (JSON summary only)")

		traceSample = flag.Int("trace-sample", 0, "root a trace for 1-in-N measured requests and forward traceparent to the target (0 = no tracing)")
		traceOut    = flag.String("trace-out", "", "write the recorded root spans to this file (join with the servers' dumps via kmertools trace-join)")
		slo         = flag.String("slo", "", "latency objective as <duration>:p<percentile> (e.g. 5ms:p99); adds error-budget accounting to the summary")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var sloObj *kcluster.SLO
	if *slo != "" {
		parsed, err := kcluster.ParseSLO(*slo)
		if err != nil {
			log.Fatal(err)
		}
		sloObj = &parsed
	}
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.NewTracer("kload", *traceSample, 0)
	}
	if *kcd == "" {
		log.Fatal("-kcd is required")
	}
	db, err := kserve.LoadDatabases([]string{*kcd})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := kcluster.RunLoad(ctx, kcluster.LoadOptions{
		Target:      *target,
		DB:          db,
		Requests:    *n,
		Warmup:      *warmup,
		Batch:       *batch,
		Concurrency: *conc,
		QPS:         *qps,
		Keys:        *keys,
		Dist:        *dist,
		ZipfS:       *zipfS,
		Seed:        *seed,
		Logf:        logf,
		Tracer:      tracer,
		SLO:         sloObj,
	})
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil && *traceOut != "" {
		if err := tracer.WriteSpansFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		logf("wrote %d spans to %s", tracer.Len(), *traceOut)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if sum.Errors > 0 {
		os.Exit(1)
	}
}
