package kcluster

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const fakeK = 17

// fakeReplica stands in for a kserve replica where a test needs to set
// the replica's health, count what reaches it, or make it misbehave. It
// holds every k-mer, with the count fakeCount gives.
type fakeReplica struct {
	name      string
	shard, of int
	srv       *httptest.Server

	health  atomic.Int32 // the State it reports; StateDown fails every request
	huge    atomic.Bool  // answer lookups with a body over the proxy's limit
	points  atomic.Int64 // GET /kmer requests received
	batches atomic.Int64 // POST /batch requests received
	served  sync.Map     // the k-mers it has answered
}

func fakeCount(seq string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(seq))
	return h.Sum32()
}

func newFakeReplica(t testing.TB, name string, shard, of int) *fakeReplica {
	f := &fakeReplica{name: name, shard: shard, of: of}
	f.health.Store(int32(StateUp))
	f.srv = httptest.NewServer(f)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeReplica) answer(seq string) Result {
	f.served.Store(seq, true)
	return Result{Kmer: seq, Count: fakeCount(seq), Present: true}
}

func (f *fakeReplica) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	health := State(f.health.Load())
	if health == StateDown {
		http.Error(w, "down", http.StatusInternalServerError)
		return
	}
	switch {
	case req.URL.Path == "/healthz":
		h := probeHealth{Status: "ok", ReplicaID: f.name, K: fakeK, ShardIndex: f.shard, ShardCount: f.of}
		code := http.StatusOK
		if health == StateDraining {
			h.Status, code = "draining", http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
	case strings.HasPrefix(req.URL.Path, "/kmer/"):
		f.points.Add(1)
		res := f.answer(strings.TrimPrefix(req.URL.Path, "/kmer/"))
		if f.huge.Load() {
			res.Error = strings.Repeat("x", maxPointBody)
		}
		writeJSON(w, http.StatusOK, res)
	case req.URL.Path == "/batch":
		f.batches.Add(1)
		var body struct {
			Kmers []string `json:"kmers"`
		}
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var br BatchResponse
		for _, seq := range body.Kmers {
			br.Results = append(br.Results, f.answer(seq))
		}
		if f.huge.Load() {
			br.Results[0].Error = strings.Repeat("x", maxBatchBody)
		}
		writeJSON(w, http.StatusOK, br)
	default:
		http.NotFound(w, req)
	}
}

// fakeCluster starts per replicas for each of shards shards;
// fakes[shard*per+j] is replica j of that shard.
func fakeCluster(t testing.TB, shards, per int) (fakes []*fakeReplica, seeds []string) {
	for s := 0; s < shards; s++ {
		for j := 0; j < per; j++ {
			f := newFakeReplica(t, string(rune('a'+j)), s, shards)
			fakes = append(fakes, f)
			seeds = append(seeds, f.addr())
		}
	}
	return fakes, seeds
}

// distinctKmers returns k-mers number first to first+n-1 of a scattered
// sequence that does not repeat; a fake replica holds them all.
func distinctKmers(first, n int) []string {
	out := make([]string, n)
	for i := range out {
		// An odd multiplier permutes the 2·fakeK-bit keys.
		out[i] = seqOf(uint64(first+i)*0x9e3779b97f4a7c15&(1<<(2*fakeK)-1), fakeK)
	}
	return out
}

// checkBatch fails unless resp answers kmers completely and in order.
func checkBatch(t *testing.T, kmers []string, resp BatchResponse) {
	if !resp.Complete || resp.Errors != 0 || len(resp.Results) != len(kmers) {
		t.Errorf("batch of %d: complete=%v errors=%d results=%d", len(kmers), resp.Complete, resp.Errors, len(resp.Results))
		return
	}
	for i, seq := range kmers {
		if got := resp.Results[i]; got.Kmer != seq || got.Count != fakeCount(seq) {
			t.Errorf("result %d = %+v, want %s with count %d", i, got, seq, fakeCount(seq))
			return
		}
	}
}

// TestPrimaryLoadIsBalanced: the Up replicas of a shard take turns as
// primary whatever the key mix, and a batch is one upstream request per
// shard it touches.
func TestPrimaryLoadIsBalanced(t *testing.T) {
	ctx := context.Background()

	fakes, seeds := fakeCluster(t, 1, 2)
	rt := NewRouter(newTestRegistry(t, seeds), RouterOptions{})
	const lookups, workers = 20000, 4
	population := distinctKmers(0, 4096)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 2))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(population)-1))
			for i := 0; i < lookups/workers; i++ {
				if _, err := rt.Lookup(ctx, population[zipf.Uint64()]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A hedge or a retry is a second request for the same lookup, at the
	// other replica: a replica was primary for at most what it received and
	// at least that less the extras.
	extras := int64(rt.met.hedges.Value() + rt.met.retries.Value())
	for _, f := range fakes {
		got := f.points.Load()
		if got < lookups*49/100 || got-extras > lookups*51/100 {
			t.Errorf("replica %s received %d of %d lookups (%d hedged or retried), want 50 ± 1 %% as primary", f.name, got, lookups, extras)
		}
	}

	fakes, seeds = fakeCluster(t, 2, 2)
	rt = NewRouter(newTestRegistry(t, seeds), RouterOptions{})
	kmers := distinctKmers(0, 64)
	resp, err := rt.Batch(ctx, kmers)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, kmers, resp)
	var calls int64
	for _, f := range fakes {
		calls += f.batches.Load()
	}
	if extras := int64(rt.met.hedges.Value() + rt.met.retries.Value()); calls-extras != 2 {
		t.Fatalf("a 64-key batch over 2 shards made %d upstream calls (%d hedged or retried), want one per shard", calls, extras)
	}
}

// TestChurnLosesNoRequest drives lookups and batches from 8 goroutines
// while one replica of each shard at a time goes Up → Draining → Down →
// Up under ProbeNow: with an Up replica left in every shard, no request
// fails and every batch is answered completely and in order.
func TestChurnLosesNoRequest(t *testing.T) {
	fakes, seeds := fakeCluster(t, 2, 2)
	reg := tableRegistry(2, seeds...)
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()

	done := make(chan struct{})
	var served atomic.Int64 // requests answered
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next := w << 24; ; next += 16 {
				select {
				case <-done:
					return
				default:
				}
				kmers := distinctKmers(next, 16)
				if res, err := rt.Lookup(ctx, kmers[0]); err != nil || res.Count != fakeCount(kmers[0]) {
					t.Errorf("Lookup(%s) = %+v, %v", kmers[0], res, err)
					return
				}
				resp, err := rt.Batch(ctx, kmers)
				if err != nil {
					t.Error(err)
					return
				}
				checkBatch(t, kmers, resp)
				if t.Failed() {
					return
				}
				served.Add(2)
			}
		}()
	}
	for cycle := 0; cycle < 6; cycle++ {
		j := cycle % 2 // replica j of both shards goes round; the other stays Up
		for _, step := range []struct {
			health State
			probes int
		}{{StateDraining, 1}, {StateDown, failThreshold}, {StateUp, 1}} {
			for _, f := range []*fakeReplica{fakes[j], fakes[2+j]} {
				f.health.Store(int32(step.health))
			}
			for i := 0; i < step.probes; i++ {
				reg.ProbeNow()
			}
			for _, f := range []*fakeReplica{fakes[j], fakes[2+j]} {
				if got := findReplica(reg, f.addr()).State(); got != step.health {
					t.Errorf("cycle %d: replica %s of shard %d is %v, want %v", cycle, f.name, f.shard, got, step.health)
				}
			}
			// Let every worker meet this view before the next one.
			for until := served.Load() + 32; served.Load() < until && !t.Failed(); {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	close(done)
	wg.Wait()
	if !reg.Ready() {
		t.Fatalf("cluster not ready after the churn: %+v", reg.Snapshot())
	}
}

// TestBatchRoutesFromOneView flips the cluster between two views that
// share no replica — only the a replicas routable, only the b replicas —
// while 8 goroutines send batches that span both shards. A batch routed
// from one view is answered by one side; a batch that read the table
// twice across a flip would be answered by both.
func TestBatchRoutesFromOneView(t *testing.T) {
	fakes, seeds := fakeCluster(t, 2, 2)
	reg := tableRegistry(2, seeds...)
	rt := NewRouter(reg, RouterOptions{})
	ctx := context.Background()
	flip := func(up, down string) {
		for _, f := range fakes {
			switch f.name {
			case up:
				setState(findReplica(reg, f.addr()), StateUp)
			case down:
				setState(findReplica(reg, f.addr()), StateDown)
			}
		}
		reg.rebuild()
	}
	flip("a", "b")

	const workers, perWorker = 8, 150
	batches := make([][]string, workers*perWorker)
	for i := range batches {
		batches[i] = distinctKmers(16*i, 16)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kmers := range batches[w*perWorker : (w+1)*perWorker] {
				resp, err := rt.Batch(ctx, kmers)
				if err != nil {
					t.Error(err)
					return
				}
				checkBatch(t, kmers, resp)
			}
		}()
	}
	stop := make(chan struct{})
	flipped := make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				flipped <- n
				return
			default:
			}
			flip("b", "a")
			flip("a", "b")
		}
	}()
	wg.Wait()
	close(stop)
	if n := <-flipped; n == 0 {
		t.Fatal("the view never changed under the batches")
	}
	for i, kmers := range batches {
		sides := map[string]bool{}
		for _, seq := range kmers {
			for _, f := range fakes {
				if _, ok := f.served.Load(seq); ok {
					sides[f.name] = true
				}
			}
		}
		if len(sides) != 1 {
			t.Fatalf("batch %d was answered by replicas of %d views", i, len(sides))
		}
	}
}

// TestOversizedUpstreamBody: an answer over the body limit fails that
// attempt as a bad upstream body, naming where it came from, and the
// request is retried on the shard's other replica.
func TestOversizedUpstreamBody(t *testing.T) {
	fakes, seeds := fakeCluster(t, 1, 2)
	fakes[1].huge.Store(true)
	reg := tableRegistry(1, seeds...)
	// No hedge: a hedged winner would return before the oversized answer
	// has failed, and the failure would go unrecorded.
	rt := NewRouter(reg, RouterOptions{HedgeMax: time.Minute})
	ctx := context.Background()
	kmers := distinctKmers(0, 8)
	bad := findReplica(reg, fakes[1].addr())

	for _, endpoint := range []string{"/batch", "/kmer"} {
		reg.ProbeNow() // the replica answers probes: Up again, strikes cleared
		retries := rt.met.retries.Value()
		for i := 0; i < 2; i++ { // each replica is primary once
			if endpoint == "/batch" {
				resp, err := rt.Batch(ctx, kmers)
				if err != nil {
					t.Fatal(err)
				}
				checkBatch(t, kmers, resp)
			} else if res, err := rt.Lookup(ctx, kmers[0]); err != nil || res.Count != fakeCount(kmers[0]) {
				t.Fatalf("Lookup = %+v, %v", res, err)
			}
		}
		if got := rt.met.retries.Value() - retries; got != 1 {
			t.Fatalf("%s: %d retries, want 1", endpoint, got)
		}
		want := "bad upstream body from " + bad.Addr + endpoint
		if got := bad.info().LastError; !strings.HasPrefix(got, want) {
			t.Fatalf("%s: the failed attempt reads %q, want %q…", endpoint, got, want)
		}
	}
}
