package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dedukt/internal/dna"
	"dedukt/internal/kcluster"
	"dedukt/internal/kcount"
	"dedukt/internal/kernels"
	"dedukt/internal/kserve"
	"dedukt/internal/pipeline"
)

const (
	clusterShards = 2
	batchKeys     = 64
	absentShare   = 0.10
	zipfExponent  = 1.1
)

// listener is one loopback HTTP server the benchmark started and must stop.
type listener struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to end.
func (l *listener) close() {
	_ = l.srv.Close()
	<-l.done
}

// prepareServing is a serving workload's set-up in the parent: it produces
// the spectrum the way `dedukt -okcd` does — a real count, checked against
// the serial oracle, exported as a KCD — and draws every client's keys.
func prepareServing(spec workloadSpec, opt options, tr *tracer, workDir string) (*manifest, error) {
	end := tr.span("setup.generate")
	ds, err := generate(spec.Dataset, opt.seed, opt.scale())
	end()
	if err != nil {
		return nil, err
	}
	end = tr.span("setup.oracle")
	oracle := countOracle(ds.reads)
	end()

	end = tr.span("setup.count")
	cfg, err := countingConfig("cpu-kmer-lr8", ds.bases)
	if err != nil {
		return nil, err
	}
	cfg.KeepTables = true
	res, err := pipeline.Run(cfg, ds.reads)
	if err == nil {
		err = oracle.check(res)
	}
	end()
	if err != nil {
		return nil, fmt.Errorf("producing count: %w", err)
	}

	m := &manifest{Dataset: ds.name, Reads: len(ds.reads), Bases: ds.bases, KCD: filepath.Join(workDir, ds.name+".kcd")}
	end = tr.span("setup.kcd_write")
	db := kcount.FromTable(res.MergedTable(), kmerLen, 0)
	err = writeKCD(m.KCD, db)
	end()
	if err != nil {
		return nil, err
	}
	if uint64(db.Len()) != oracle.Distinct {
		return nil, fmt.Errorf("exported database holds %d k-mers, oracle %d", db.Len(), oracle.Distinct)
	}
	m.ServedKmers = db.Len()

	end = tr.span("setup.draw_keys")
	defer end()
	perRequest := 1
	if spec.Batch {
		perRequest = batchKeys
	}
	for cl := 0; cl < opt.clients(); cl++ {
		s := newKeySampler(subSeed(opt.seed, seedKeys+int64(cl)), db, spec.ZipfS, spec.Absent)
		path := filepath.Join(workDir, fmt.Sprintf("keys.%d.bin", cl))
		if err := writeKeys(path, s, opt.poolSize(spec.Batch)*perRequest); err != nil {
			return nil, err
		}
		m.KeyFiles = append(m.KeyFiles, path)
	}
	return m, nil
}

// A key file is a sequence of 12-byte records: the drawn key and the count
// the database holds for it, both little-endian.
const keyRecord = 12

func writeKeys(path string, s *keySampler, n int) error {
	buf := make([]byte, 0, n*keyRecord)
	for i := 0; i < n; i++ {
		key, want := s.next()
		buf = binary.LittleEndian.AppendUint64(buf, key)
		buf = binary.LittleEndian.AppendUint32(buf, want)
	}
	return os.WriteFile(path, buf, 0o644)
}

// readKeys returns a draw function over the file's records, in order; it
// wraps around at the end.
func readKeys(path string) (draw func() (uint64, uint32), n int, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(buf) == 0 || len(buf)%keyRecord != 0 {
		return nil, 0, fmt.Errorf("%s: %d bytes is not a whole number of key records", path, len(buf))
	}
	at := 0
	return func() (uint64, uint32) {
		rec := buf[at : at+keyRecord]
		at = (at + keyRecord) % len(buf)
		return binary.LittleEndian.Uint64(rec), binary.LittleEndian.Uint32(rec[8:])
	}, len(buf) / keyRecord, nil
}

// servingCluster is the 2-shard x 1-replica cluster in the child: two
// kserve services behind their HTTP handlers, fronted by a kcluster router
// and its handler, all on loopback listeners.
type servingCluster struct {
	db       *kcount.Database // the served spectrum, as loaded from the KCD
	kcdPath  string
	seed     int64 // recorded in the manifest; seeds the probes' key draws
	services []*kserve.Service
	replicas []*listener
	registry *kcluster.Registry
	proxy    *listener
	pools    [][]request // one per client
}

func (c *servingCluster) close() {
	if c.proxy != nil {
		c.proxy.close()
	}
	if c.registry != nil {
		c.registry.Close()
	}
	for _, l := range c.replicas {
		l.close()
	}
	for _, s := range c.services {
		s.Close()
	}
}

// request is one prepared client request with the counts a correct answer
// carries.
type request struct {
	url  string
	body []byte // nil for a point lookup (GET)
	want []uint32
}

// buildPool prepares n requests against base from draw's keys: 64-key POST
// /batch bodies, or one-key GET /kmer URLs.
func buildPool(base string, draw func() (uint64, uint32), n int, batch bool) []request {
	next := func() (string, uint32) {
		key, want := draw()
		return dna.Kmer(key).String(&dna.Random, kmerLen), want
	}
	pool := make([]request, n)
	for i := range pool {
		if !batch {
			seq, want := next()
			pool[i] = request{url: base + "/kmer/" + seq, want: []uint32{want}}
			continue
		}
		var body struct {
			Kmers []string `json:"kmers"`
		}
		want := make([]uint32, batchKeys)
		for j := range want {
			var seq string
			seq, want[j] = next()
			body.Kmers = append(body.Kmers, seq)
		}
		data, _ := json.Marshal(body) // a struct of strings cannot fail to encode
		pool[i] = request{url: base + "/batch", body: data, want: want}
	}
	return pool
}

// loadServing starts the cluster over the KCD the manifest names and turns
// the key files into each client's prepared requests.
func loadServing(spec workloadSpec, m *manifest, tr *tracer) (_ *servingCluster, err error) {
	c := &servingCluster{kcdPath: m.KCD, seed: m.Environment.Seed}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	end := tr.span("load.kcd")
	c.db, err = kserve.LoadDatabases([]string{c.kcdPath})
	end()
	if err != nil {
		return nil, err
	}
	if c.db.Len() != m.ServedKmers {
		return nil, fmt.Errorf("loaded database holds %d k-mers, manifest says %d", c.db.Len(), m.ServedKmers)
	}

	end = tr.span("load.cluster_start")
	defer end()
	var seeds []string
	for i := 0; i < clusterShards; i++ {
		part, err := kserve.FilterShard(c.db, i, clusterShards)
		if err != nil {
			return nil, err
		}
		svc, err := kserve.New(part, kserve.Options{ReplicaID: fmt.Sprintf("shard%d", i), ShardIndex: i, ShardCount: clusterShards})
		if err != nil {
			return nil, err
		}
		c.services = append(c.services, svc)
		l, err := listen(kserve.NewHandler(svc))
		if err != nil {
			return nil, err
		}
		c.replicas = append(c.replicas, l)
		seeds = append(seeds, l.addr)
	}
	if c.registry, err = kcluster.NewRegistry(kcluster.RegistryOptions{Seeds: seeds}); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c.registry.ProbeNow()
		if c.registry.Ready() {
			break
		}
		if time.Now().After(deadline) {
			return nil, errors.New("cluster not ready after 5 s")
		}
	}
	if c.proxy, err = listen(kcluster.NewHandler(kcluster.NewRouter(c.registry, kcluster.RouterOptions{}))); err != nil {
		return nil, err
	}

	perRequest := 1
	if spec.Batch {
		perRequest = batchKeys
	}
	for _, path := range m.KeyFiles {
		draw, n, err := readKeys(path)
		if err != nil {
			return nil, err
		}
		c.pools = append(c.pools, buildPool("http://"+c.proxy.addr, draw, n/perRequest, spec.Batch))
	}
	if len(c.pools) == 0 {
		return nil, errors.New("manifest names no key files")
	}
	return c, nil
}

// sampler draws probe keys with the workload's distribution; stream keeps
// the probes' draws apart from the clients' and from each other's.
func (c *servingCluster) sampler(stream int64, zipfS, absent float64) *keySampler {
	return newKeySampler(subSeed(c.seed, seedKeys+stream), c.db, zipfS, absent)
}

func writeKCD(path string, db *kcount.Database) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return db.Write(f)
}

// loadResult is what one closed-loop window measured.
type loadResult struct {
	elapsed  float64
	cpu      float64
	requests int
	lookups  int       // attempted
	failed   int       // lookups that errored or returned a wrong count
	latUS    []float64 // per-request latency, every request
	firstErr error
}

// runLoad drives one closed loop per pool for dur: each client sends its
// next prepared request only after the previous answer arrived and every
// count was checked.
func runLoad(client *http.Client, pools [][]request, dur time.Duration) loadResult {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	parts := make([]loadResult, len(pools))
	c0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, pool := range pools {
		wg.Add(1)
		go func(p *loadResult, pool []request) {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; ctx.Err() == nil; n++ {
				req := &pool[n%len(pool)]
				start := time.Now()
				bad, err := doRequest(client, req, &buf)
				if ctx.Err() != nil && err != nil {
					return // the window closed under this request; it is not an attempt
				}
				p.latUS = append(p.latUS, float64(time.Since(start).Nanoseconds())/1e3)
				p.requests++
				p.lookups += len(req.want)
				p.failed += bad
				if err != nil && p.firstErr == nil {
					p.firstErr = err
				}
			}
		}(&parts[i], pool)
	}
	wg.Wait()
	total := loadResult{elapsed: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	for _, p := range parts {
		total.requests += p.requests
		total.lookups += p.lookups
		total.failed += p.failed
		total.latUS = append(total.latUS, p.latUS...)
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total
}

// doRequest sends one request and returns how many of its lookups failed: a
// transport error or a non-200 fails them all; otherwise a lookup fails on a
// per-key error marker or a count that differs from Database.Get.
func doRequest(client *http.Client, req *request, buf *bytes.Buffer) (bad int, err error) {
	var resp *http.Response
	if req.body == nil {
		resp, err = client.Get(req.url)
	} else {
		resp, err = client.Post(req.url, "application/json", bytes.NewReader(req.body))
	}
	if err != nil {
		return len(req.want), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return len(req.want), err
	}
	if resp.StatusCode != http.StatusOK {
		return len(req.want), fmt.Errorf("%s: HTTP %d: %.80s", req.url, resp.StatusCode, buf.Bytes())
	}
	var results []kcluster.Result
	if req.body == nil {
		results = make([]kcluster.Result, 1)
		err = json.Unmarshal(buf.Bytes(), &results[0])
	} else {
		var br kcluster.BatchResponse
		err = json.Unmarshal(buf.Bytes(), &br)
		results = br.Results
	}
	if err != nil || len(results) != len(req.want) {
		return len(req.want), fmt.Errorf("%s: undecodable answer (%d results for %d keys): %v", req.url, len(results), len(req.want), err)
	}
	for i, r := range results {
		if r.Error != "" || r.Count != req.want[i] {
			bad++
			if err == nil {
				err = fmt.Errorf("%s: key %s: count %d error %q, database holds %d", req.url, r.Kmer, r.Count, r.Error, req.want[i])
			}
		}
	}
	return bad, err
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
}

// counters snapshots the registry counters a window is charged by.
type counters struct{ hits, misses, hedges, retries uint64 }

func (c *servingCluster) counters() counters {
	var n counters
	for _, s := range c.services {
		m := s.Metrics()
		n.hits += m.CacheHits
		n.misses += m.CacheMisses
	}
	reg := c.registry.Obs()
	n.hedges = reg.Counter("kcluster_hedges_total", "").Value()
	n.retries = reg.Counter("kcluster_retries_total", "").Value()
	return n
}

// runServing is the measured part of a serving workload, in the child.
func runServing(spec workloadSpec, m *manifest, opt options, tr *tracer, out *outcome) error {
	end := tr.span("load")
	t0 := time.Now()
	c, err := loadServing(spec, m, tr)
	out.set("setup_s", time.Since(t0).Seconds())
	end()
	if err != nil {
		return fmt.Errorf("load: %w", err)
	}
	defer c.close()

	client := newHTTPClient()
	defer client.CloseIdleConnections()
	window := opt.seconds
	if opt.trace {
		window /= 2
	}
	end = tr.span("warmup")
	warm := runLoad(client, c.pools, opt.dur(window/5))
	end()
	if warm.requests == 0 || warm.failed > 0 {
		return fmt.Errorf("warm-up: %d requests, %d failed lookups: %v", warm.requests, warm.failed, warm.firstErr)
	}
	runtime.GC() // as before a counting repetition: the window starts from a collected heap
	before := c.counters()
	end = tr.span("window")
	load := runLoad(client, c.pools, opt.dur(window))
	end()
	after := c.counters()
	if load.requests == 0 {
		return errors.New("no request completed inside the measured window")
	}
	out.attempted, out.failed, out.firstErr = load.lookups, load.failed, load.firstErr
	verified := float64(load.lookups - load.failed)
	out.set("kcluster.lookups_per_s", verified/load.elapsed)
	out.set("kcluster.cpu_s_per_mlookup", load.cpu/(verified/1e6))
	out.set("peak_rss_mb", peakRSSMB())

	sorted := sortedCopy(load.latUS)
	out.noteSamples("request_us", load.latUS)
	out.set("kcluster.request_p50_us", quantile(sorted, 0.5))
	out.set("kcluster.request_p99_us", quantile(sorted, 0.99))
	tail := tailPercentile(len(sorted))
	out.notes = append(out.notes, fmt.Sprintf("request latency p%g = %.1f us (highest percentile with >= 10 of %d samples beyond it)", tail, quantile(sorted, tail/100), len(sorted)))
	kreq := float64(load.requests) / 1e3
	out.set("kcluster.hedges_per_kreq", float64(after.hedges-before.hedges)/kreq)
	out.set("kcluster.retries_per_kreq", float64(after.retries-before.retries)/kreq)
	if probes := after.hits - before.hits + after.misses - before.misses; probes > 0 {
		out.set("kserve.cache_hit_ratio", float64(after.hits-before.hits)/float64(probes))
	}
	if !opt.trace {
		return nil
	}
	return c.probes(spec, opt, tr, out, client)
}

// probes takes the serving-side layer measurements of a traced run.
func (c *servingCluster) probes(spec workloadSpec, opt options, tr *tracer, out *outcome, client *http.Client) error {
	// The same request shape straight at shard 0's replica: what the proxy
	// adds is the difference of the medians.
	direct := func(name string, batch bool, s *keySampler) (float64, error) {
		end := tr.span("probe." + name)
		defer end()
		onShard0 := func() (uint64, uint32) {
			for {
				if key, want := s.next(); kernels.DestOf(key, clusterShards) == 0 {
					return key, want
				}
			}
		}
		pools := make([][]request, opt.clients())
		for i := range pools {
			pools[i] = buildPool("http://"+c.replicas[0].addr, onShard0, opt.poolSize(batch)/8, batch)
		}
		r := runLoad(client, pools, opt.dur(opt.seconds/8))
		if r.requests == 0 || r.failed > 0 {
			return 0, fmt.Errorf("%s: %d requests, %d failed lookups: %v", name, r.requests, r.failed, r.firstErr)
		}
		return median(r.latUS), nil
	}
	sameShape, err := direct("kcluster.direct_replica", spec.Batch, c.sampler(100, spec.ZipfS, spec.Absent))
	if err != nil {
		return err
	}
	out.set("kcluster.proxy_added_p50_us", out.metrics["kcluster.request_p50_us"]-sameShape)
	httpBatch := sameShape
	if !spec.Batch {
		if httpBatch, err = direct("kserve.http_batch", true, c.sampler(101, 0, absentShare)); err != nil {
			return err
		}
	}
	out.set("kserve.http_batch_p50_us", httpBatch)

	end := tr.span("probe.kserve.load")
	var loads []float64
	for i := 0; i < opt.probePasses(); i++ {
		t0 := time.Now()
		db, err := kserve.LoadDatabases([]string{c.kcdPath})
		if err != nil {
			end()
			return err
		}
		svc, err := kserve.New(db, kserve.Options{})
		if err != nil {
			end()
			return err
		}
		loads = append(loads, time.Since(t0).Seconds())
		svc.Close()
	}
	end()
	out.set("kserve.load_s", median(loads))

	end = tr.span("probe.kserve.lookup")
	err = c.probeService(opt, out)
	end()
	if err != nil {
		return err
	}
	end = tr.span("probe.kcount.kcd")
	err = c.probeKCD(opt, out)
	end()
	return err
}

// probeService times the kserve front end with no HTTP in the way: nproc
// closed-loop callers against one default-options service over the whole
// spectrum.
func (c *servingCluster) probeService(opt options, out *outcome) error {
	svc, err := kserve.New(c.db, kserve.Options{})
	if err != nil {
		return err
	}
	defer svc.Close()
	callers := runtime.GOMAXPROCS(0)
	// closedLoop returns the median latency in microseconds of call, issued
	// back to back by every caller for the probe window.
	closedLoop := func(stream int64, zipfS float64, call func(ctx context.Context, s *keySampler) error) (float64, error) {
		ctx, cancel := context.WithTimeout(context.Background(), opt.dur(opt.seconds/10))
		defer cancel()
		lats := make([][]float64, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := c.sampler(stream+int64(i), zipfS, 0)
				for ctx.Err() == nil {
					t0 := time.Now()
					if err := call(context.Background(), s); err != nil {
						errs[i] = err
						return
					}
					lats[i] = append(lats[i], float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}(i)
		}
		wg.Wait()
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return median(all), errors.Join(errs...)
	}
	point := func(ctx context.Context, s *keySampler) error {
		key, want := s.next()
		got, err := svc.LookupKey(ctx, key)
		if err == nil && got != want {
			err = fmt.Errorf("LookupKey(%#x) = %d, database holds %d", key, got, want)
		}
		return err
	}
	p50, err := closedLoop(200, 0, point)
	if err != nil {
		return err
	}
	out.set("kserve.lookup_key_p50_us", p50)
	if p50, err = closedLoop(300, zipfExponent, point); err != nil {
		return err
	}
	out.set("kserve.lookup_key_hot_p50_us", p50)
	p50, err = closedLoop(400, 0, func(ctx context.Context, s *keySampler) error {
		var keys [batchKeys]uint64
		var want, got [batchKeys]uint32
		for i := range keys {
			keys[i], want[i] = s.next()
		}
		if err := svc.LookupKeysInto(ctx, keys[:], got[:]); err != nil {
			return err
		}
		if got != want {
			return errors.New("LookupKeysInto returned a count the database does not hold")
		}
		return nil
	})
	out.set("kserve.lookup_keys64_p50_us", p50)
	return err
}

// probeKCD times the database file format and the binary search under
// every lookup.
func (c *servingCluster) probeKCD(opt options, out *outcome) error {
	var image bytes.Buffer
	sec, err := measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			image.Reset()
			if err := c.db.Write(&image); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("kcount.kcd_write_mb_per_s", float64(image.Len())/1e6/sec)
	sec, err = measure(opt, func(iters int) error {
		for i := 0; i < iters; i++ {
			if _, err := kcount.ReadDatabase(bytes.NewReader(image.Bytes())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	out.set("kcount.kcd_read_mb_per_s", float64(image.Len())/1e6/sec)

	s := c.sampler(500, 0, absentShare)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i], _ = s.next()
	}
	sec, err = measure(opt, func(iters int) error {
		var acc uint64
		for i := 0; i < iters; i++ {
			for _, key := range keys {
				acc += uint64(c.db.Get(key))
			}
		}
		sink += acc
		return nil
	})
	out.set("kcount.db_get_ns", sec*1e9/float64(len(keys)))
	return err
}
