// Command kproxy fronts a replicated kserve cluster: it probes the seed
// replicas' /healthz, learns the cluster shape (k, canonical, shard
// count), keeps a table of each shard's routable replicas, and routes
// GET /kmer/{seq} and POST /batch by the pipeline's owner hash — taking a
// shard's replicas in turn, hedging slow requests at a latency quantile,
// retrying hard failures on the shard's next replica, and degrading
// batches to per-key error markers when a shard loses every replica.
//
//	kserve -kcd counts.kcd -shard 0/2 -addr :8081 &
//	kserve -kcd counts.kcd -shard 0/2 -addr :8082 &
//	kserve -kcd counts.kcd -shard 1/2 -addr :8083 &
//	kserve -kcd counts.kcd -shard 1/2 -addr :8084 &
//	kproxy -replica :8081 -replica :8082 -replica :8083 -replica :8084
//
//	curl localhost:9090/kmer/ACGTACGTACGTACGTA
//	curl -X POST localhost:9090/batch -d '{"kmers":["ACGTACGTACGTACGTA"]}'
//	curl localhost:9090/healthz       # cluster shape + per-replica state
//	curl localhost:9090/metrics       # kcluster_* (hedges, retries, …)
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/durable"
	"dedukt/internal/kcluster"
	"dedukt/internal/obs"
)

// readHeaderTimeout bounds how long a client connection may take to deliver
// its request headers; without it a client that never finishes them holds a
// connection and a goroutine forever.
const readHeaderTimeout = 5 * time.Second

func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// addrList collects repeated -replica flags.
type addrList []string

func (p *addrList) String() string { return strings.Join(*p, ",") }
func (p *addrList) Set(v string) error {
	if !strings.Contains(v, ":") {
		v = "127.0.0.1:" + v
	} else if strings.HasPrefix(v, ":") {
		v = "127.0.0.1" + v
	}
	*p = append(*p, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("kproxy: ")
	var replicas addrList
	flag.Var(&replicas, "replica", "kserve replica address (repeatable; host:port, :port, or bare port)")
	var (
		addr          = flag.String("addr", "127.0.0.1:9090", "listen address (port 0 picks a free port)")
		probeInterval = flag.Duration("probe-interval", 250*time.Millisecond, "replica /healthz probe period")
		hedgeMax      = flag.Duration("hedge-max", 25*time.Millisecond, "upper clamp on the hedge delay (also the cold-start delay)")
		encoding      = flag.String("encoding", "random", "base encoding the replicas serve: random (CLI default) or lex")
		traceSample   = flag.Int("trace-sample", 0, "enable request tracing: root a span for 1-in-N headerless requests; incoming sampled traceparents are always continued (0 disables rooting; tracing stays on if -trace-out is set)")
		traceOut      = flag.String("trace-out", "", "write the recorded span buffer to this file on exit (tracing also serves /debug/trace live)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (off by default)")
	)
	flag.Parse()
	for _, a := range flag.Args() {
		_ = replicas.Set(a)
	}
	if len(replicas) == 0 {
		log.Fatal("at least one -replica address is required")
	}
	enc, err := dna.EncodingByName(*encoding)
	if err != nil {
		log.Fatal(err)
	}

	reg, err := kcluster.NewRegistry(kcluster.RegistryOptions{
		Seeds:         replicas,
		ProbeInterval: *probeInterval,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer reg.Close()
	reg.ProbeNow()
	if k, canonical, shards, ready := reg.Shape(); ready {
		log.Printf("routing %d replicas across %d shard(s), k=%d canonical=%v", len(replicas), shards, k, canonical)
	} else {
		log.Printf("no replica answered yet; routing %d seeds, shape pending", len(replicas))
	}

	var tracer *obs.Tracer
	if *traceSample > 0 || *traceOut != "" {
		tracer = obs.NewTracer("kproxy", *traceSample)
	}
	obs.ServePprof(*pprofAddr, log.Printf)
	router := kcluster.NewRouter(reg, kcluster.RouterOptions{
		Enc:      enc,
		HedgeMax: *hedgeMax,
		Tracer:   tracer,
	})
	obs.RegisterBuildInfo(reg.Obs(), "kproxy")
	writeTrace := func() {
		if tracer == nil || *traceOut == "" {
			return
		}
		if err := durable.WriteFile(*traceOut, tracer.WriteSpans); err != nil {
			log.Printf("trace-out: %v", err)
		} else {
			log.Printf("wrote %d spans to %s", tracer.Len(), *traceOut)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", ln.Addr())
	srv := newServer(kcluster.NewHandler(router))
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		writeTrace()
		log.Fatal(err)
	case got := <-sig:
		log.Printf("caught %s, shutting down", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		writeTrace()
		if err != nil {
			log.Fatal(err)
		}
	}
}
