package kcluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
)

const fuzzK = 17

// fuzzProxy is the proxy handler both fuzz targets drive, in front of a
// live cluster of 2 shards × 1 kserve replica, with the database the
// answers are checked against.
func fuzzProxy(f *testing.F) (*kcount.Database, *Registry, http.Handler) {
	db := sampleDB(f, fuzzK, 1_000, 41)
	_, seeds := startCluster(f, db, 2, 1)
	reg := newTestRegistry(f, seeds)
	if !reg.Ready() {
		f.Fatalf("cluster not ready: %+v", reg.Snapshot())
	}
	return db, reg, NewHandler(NewRouter(reg, RouterOptions{}))
}

// serve hands h a request the way net/http's server would build it from
// the request line "method target HTTP/1.1", and returns the answer with
// the URL the handler saw — or nils for a target the server itself refuses
// before any handler runs.
func serve(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, *url.URL) {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return nil, nil
	}
	req := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	req.Method, req.URL, req.RequestURI = method, u, target
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, u
}

// checkStatus holds an answer to the statuses the proxy may give, and the
// cluster to its health: nothing a client sends strikes a replica.
func checkStatus(t *testing.T, reg *Registry, what string, rec *httptest.ResponseRecorder) {
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge,
		http.StatusBadGateway, http.StatusServiceUnavailable:
	default:
		t.Fatalf("%s = %d %s", what, rec.Code, rec.Body)
	}
	for _, rep := range reg.replicas {
		rep.mu.Lock()
		state, fails, lastErr := rep.state, rep.fails, rep.lastErr
		rep.mu.Unlock()
		if state != StateUp || fails != 0 {
			t.Fatalf("%s left replica %s %v with %d strikes (%s)", what, rep.Addr, state, fails, lastErr)
		}
	}
}

// fuzzSeqs are the query shapes worth starting from: present, absent,
// wrong length, non-ACGT, empty, and segments that are not one path element.
func fuzzSeqs(db *kcount.Database) []string {
	present := seqOf(db.Entries[3].Key, fuzzK)
	return []string{
		present,
		strings.Repeat("A", fuzzK),
		"",
		"ACGT",
		strings.Repeat("A", fuzzK+1),
		strings.Repeat("N", fuzzK),
		strings.Repeat("A", fuzzK-1) + "/",
		present[:8] + "/" + present[8:],
		present[:fuzzK-1] + "%41",
		"%zz",
		"%2F",
		"/",
		"..",
		present + "?x=1",
	}
}

// FuzzProxyKmer: any method on any /kmer/ path never panics, never
// strikes a replica, answers 405 to every method but GET, 200 exactly to
// a well-formed k-mer and then with the count Database.Get holds, and 400
// to the rest — the mux's own redirect aside, for a path that cleaning
// changes and that therefore never reaches the handler.
func FuzzProxyKmer(f *testing.F) {
	db, reg, h := fuzzProxy(f)
	for _, seq := range fuzzSeqs(db) {
		f.Add("GET", seq)
	}
	f.Add("POST", fuzzSeqs(db)[0])
	f.Add("", fuzzSeqs(db)[0])
	f.Fuzz(func(t *testing.T, method, seg string) {
		rec, u := serve(h, method, "/kmer/"+seg, nil)
		if u == nil {
			return
		}
		what := method + " /kmer/" + seg
		if rec.Code == http.StatusMovedPermanently {
			if sent := u.EscapedPath(); path.Clean(sent) == strings.TrimSuffix(sent, "/") {
				t.Fatalf("%s redirected to %s, a path that was clean", what, rec.Header().Get("Location"))
			}
			return
		}
		checkStatus(t, reg, what, rec)
		if method != "GET" {
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s = %d, want 405", what, rec.Code)
			}
			return
		}
		seq := strings.TrimPrefix(u.Path, "/kmer/") // unescaped, as the handler reads it
		want, err := db.Lookup(&dna.Random, seq)
		if err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s = %d for a malformed k-mer (%v)", what, rec.Code, err)
			}
			return
		}
		var res Result
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
			t.Fatalf("%s = %d %s, want 200 and a JSON body", what, rec.Code, rec.Body)
		}
		if res.Kmer != seq || res.Count != want || res.Present != (want > 0) || res.Error != "" {
			t.Fatalf("%s = %+v, database holds %d", what, res, want)
		}
	})
}

// FuzzProxyBatch: any method with any body on /batch never panics, never
// strikes a replica, answers 405 to every method but POST, never refuses a
// batch within the limits, and a 200 carries one result per requested
// k-mer: the count Database.Get holds, or an error marker for a k-mer that
// is malformed.
func FuzzProxyBatch(f *testing.F) {
	db, reg, h := fuzzProxy(f)
	seqs := fuzzSeqs(db)
	batch := func(kmers ...string) []byte {
		body, _ := json.Marshal(map[string][]string{"kmers": kmers})
		return body
	}
	f.Add("POST", []byte{})
	f.Add("POST", batch())
	f.Add("POST", batch(seqs[:2]...))
	f.Add("GET", batch(seqs[:2]...))
	f.Add("PUT", batch(seqs[:2]...))
	f.Add("POST", batch(seqs[0], "ACGT", strings.Repeat("N", fuzzK)))
	f.Add("POST", batch(seqs[:2]...)[:20]) // truncated JSON
	f.Add("POST", []byte(`{"kmers":`+strings.Repeat("[", 20_000)+strings.Repeat("]", 20_000)+`}`))
	many := make([]string, maxBatchKmers+1)
	for i := range many {
		many[i] = seqs[i%2]
	}
	f.Add("POST", batch(many[:maxBatchKmers]...))
	f.Add("POST", batch(many...))
	// One byte over the body limit, all of it inside the JSON value.
	f.Add("POST", []byte(`{"kmers":[`+strings.Repeat(" ", maxBatchBody+1-12)+`]}`))

	f.Fuzz(func(t *testing.T, method string, body []byte) {
		rec, _ := serve(h, method, "/batch", body)
		what := method + " /batch"
		checkStatus(t, reg, what, rec)
		if method != "POST" {
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s = %d, want 405", what, rec.Code)
			}
			return
		}
		// The handler decodes the first JSON value of the body; so does this.
		var req struct {
			Kmers []string `json:"kmers"`
		}
		wellFormed := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			len(body) <= maxBatchBody && len(req.Kmers) <= maxBatchKmers
		if rec.Code != http.StatusOK {
			if wellFormed {
				t.Fatalf("%s refused a well-formed batch of %d: %d %s", what, len(req.Kmers), rec.Code, rec.Body)
			}
			return
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(req.Kmers) {
			t.Fatalf("%s of %d answered %d results (%v)", what, len(req.Kmers), len(resp.Results), err)
		}
		if !resp.Complete {
			t.Fatalf("%s answered incomplete from a healthy cluster: %s", what, rec.Body)
		}
		for i, r := range resp.Results {
			want, err := db.Lookup(&dna.Random, req.Kmers[i])
			if r.Kmer != req.Kmers[i] || (r.Error != "") != (err != nil) || r.Count != want || r.Present != (want > 0) {
				t.Fatalf("result %d = %+v, database holds %d for %q (%v)", i, r, want, req.Kmers[i], err)
			}
		}
	})
}
