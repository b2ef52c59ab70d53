package kserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dedukt/internal/dna"
)

// TestConcurrentLookupsDuringShutdown fires point and batch lookups from
// many goroutines while Close races them (run under -race). The invariant:
// every lookup either returns the exact database count or fails with
// ErrClosed/ErrOverloaded — never a wrong count, panic, or deadlock.
func TestConcurrentLookupsDuringShutdown(t *testing.T) {
	const k = 17
	db := sampleDB(t, k, 2_000, 11, 0)
	svc, err := New(db, Options{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wrong, served, refused atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := db.Entries[i%len(db.Entries)]
				i += 7
				if g%2 == 0 {
					got, err := svc.LookupKey(ctx, e.Key)
					switch {
					case err == nil:
						served.Add(1)
						if got != e.Count {
							wrong.Add(1)
						}
					case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
						refused.Add(1)
					default:
						t.Errorf("unexpected error: %v", err)
						return
					}
				} else {
					keys := []uint64{e.Key, db.Entries[(i+1)%len(db.Entries)].Key}
					got := make([]uint32, len(keys))
					err := svc.LookupKeysInto(ctx, keys, got)
					switch {
					case err == nil:
						served.Add(1)
						if got[0] != db.Get(keys[0]) || got[1] != db.Get(keys[1]) {
							wrong.Add(1)
						}
					case errors.Is(err, ErrClosed), errors.Is(err, ErrOverloaded):
						refused.Add(1)
					default:
						t.Errorf("unexpected batch error: %v", err)
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	// Two concurrent Closes race the lookups and each other.
	var cwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cwg.Add(1)
		go func() { defer cwg.Done(); svc.Close() }()
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d lookups returned wrong counts", wrong.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no lookup succeeded before shutdown")
	}
	// After a drained Close every new lookup is refused.
	if _, err := svc.LookupKey(ctx, db.Entries[0].Key); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close lookup: %v", err)
	}
	t.Logf("served=%d refused=%d", served.Load(), refused.Load())
}

// TestBackpressure429 pins admission control: with an in-flight bound of 2
// and every admitted lookup held 50 ms by Slow, two lookups fill the bound
// and a third concurrent request — a point lookup, a GET /kmer, or a POST
// /batch, which is one admission however many keys it carries — is shed at
// once with ErrOverloaded / HTTP 429 + Retry-After, never blocked or queued
// behind the other two, which still return their exact counts.
func TestBackpressure429(t *testing.T) {
	const k = 17
	const slow = 50 * time.Millisecond
	db := sampleDB(t, k, 1_000, 12, 0)
	svc := newService(t, db, Options{QueueDepth: 2, Slow: slow})
	ctx := context.Background()

	// holdTwo starts two point lookups and returns once both are admitted
	// (and so inside their Slow hold); answered waits for their counts.
	holdTwo := func() (answered func()) {
		admitted := svc.Metrics().Requests + 2
		var wg sync.WaitGroup
		for _, e := range db.Entries[:2] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got, err := svc.LookupKey(ctx, e.Key); err != nil || got != e.Count {
					t.Errorf("admitted lookup of %#x = %d, %v; want %d", e.Key, got, err, e.Count)
				}
			}()
		}
		for svc.Metrics().Requests != admitted {
			time.Sleep(time.Millisecond)
		}
		return wg.Wait
	}

	answered := holdTwo()
	t0 := time.Now()
	if _, err := svc.LookupKey(ctx, db.Entries[2].Key); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third concurrent lookup at bound 2: %v, want ErrOverloaded", err)
	}
	if d := time.Since(t0); d >= slow {
		t.Fatalf("refused lookup took %s: it waited instead of being shed", d)
	}
	answered()
	if m := svc.Metrics(); m.Rejected != 1 {
		t.Fatalf("kserve_rejected_total = %d after one shed lookup, want 1", m.Rejected)
	}

	// The HTTP layer reports the same condition as 429 with Retry-After.
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	var seqs []string
	for _, e := range db.Entries[2:5] {
		seqs = append(seqs, dna.Kmer(e.Key).String(&dna.Random, k))
	}
	body, _ := json.Marshal(batchRequest{Kmers: seqs})
	answered = holdTwo()
	get, err := http.Get(ts.URL + "/kmer/" + seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	post, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	answered()
	for _, resp := range []*http.Response{get, post} {
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated %s %s = %d, want 429", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("429 from %s without Retry-After", resp.Request.URL.Path)
		}
	}
	if m := svc.Metrics(); m.Rejected != 3 {
		t.Fatalf("kserve_rejected_total = %d after a shed lookup, GET and batch, want 3", m.Rejected)
	}
}

// TestQueuedLookupsAnsweredOnClose verifies graceful drain: Close returns
// only after every lookup admitted before it has been answered — each with
// its exact count — and lookups issued after it get ErrClosed.
func TestQueuedLookupsAnsweredOnClose(t *testing.T) {
	db := sampleDB(t, 17, 1_000, 13, 0)
	svc, err := New(db, Options{Slow: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 20
	var wg sync.WaitGroup
	for _, e := range db.Entries[:n] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := svc.LookupKey(ctx, e.Key); err != nil || got != e.Count {
				t.Errorf("admitted lookup of %#x = %d, %v; want %d", e.Key, got, err, e.Count)
			}
		}()
	}
	for svc.Metrics().Requests != n { // all admitted; the last still held by Slow
		time.Sleep(time.Millisecond)
	}
	svc.Close()
	if got := svc.inflight.Load(); got != 0 {
		t.Fatalf("Close returned with %d lookups still admitted", got)
	}
	if _, err := svc.LookupKey(ctx, db.Entries[0].Key); !errors.Is(err, ErrClosed) {
		t.Fatalf("lookup after Close: %v, want ErrClosed", err)
	}
	if err := svc.LookupKeysInto(ctx, []uint64{db.Entries[0].Key}, make([]uint32, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after Close: %v, want ErrClosed", err)
	}
	wg.Wait()
}
