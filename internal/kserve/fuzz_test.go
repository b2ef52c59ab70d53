package kserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"dedukt/internal/dna"
	"dedukt/internal/kcount"
)

const fuzzK = 17

// fuzzHandler is the open, canonical service both handler fuzz targets
// drive, with the database their answers are checked against.
func fuzzHandler(f *testing.F) (*kcount.Database, http.Handler) {
	db := sampleDB(f, fuzzK, 1_000, 41, kcount.FlagCanonical)
	return db, NewHandler(newService(f, db, Options{}))
}

// fuzzSeqs are the query shapes worth starting from: present on either
// strand, absent, wrong length, non-ACGT, empty.
func fuzzSeqs(db *kcount.Database) []string {
	present := dna.Kmer(db.Entries[3].Key)
	return []string{
		present.String(&dna.Random, fuzzK),
		present.ReverseComplement(&dna.Random, fuzzK).String(&dna.Random, fuzzK),
		strings.Repeat("A", fuzzK),
		"",
		"ACGT",
		strings.Repeat("A", fuzzK+1),
		strings.Repeat("N", fuzzK),
		strings.Repeat("A", fuzzK-1) + "/",
		"/",
		"..",
	}
}

// FuzzHandlerKmer: GET /kmer/{seq} with an arbitrary path segment never
// panics, answers 200 exactly when the segment is a well-formed k-mer, and
// every 200 carries the count Database.Get holds. Anything else is the
// handler's 400 — or the mux's own 404 / redirect for a segment that
// vanishes or changes under path cleaning ("", "/", "..") and so never
// reaches the handler.
func FuzzHandlerKmer(f *testing.F) {
	db, h := fuzzHandler(f)
	for _, seq := range fuzzSeqs(db) {
		f.Add(seq)
	}
	f.Fuzz(func(t *testing.T, seg string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/kmer/"+url.PathEscape(seg), nil))
		want, err := db.Lookup(&dna.Random, seg)
		if err != nil {
			switch rec.Code {
			case http.StatusBadRequest, http.StatusNotFound, http.StatusMovedPermanently, http.StatusTemporaryRedirect:
			default:
				t.Fatalf("GET /kmer/%q = %d for a malformed k-mer (%v)", seg, rec.Code, err)
			}
			return
		}
		var res KmerResult
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
			t.Fatalf("GET /kmer/%q = %d %s, want 200", seg, rec.Code, rec.Body)
		}
		if res.Kmer != seg || res.Count != want || res.Present != (want > 0) {
			t.Fatalf("GET /kmer/%q = %+v, database holds %d", seg, res, want)
		}
	})
}

// FuzzHandlerBatch: POST /batch with an arbitrary body never panics,
// answers only 200 or 400, never refuses a well-formed batch within the
// limits, and every 200 carries one Database.Get count per requested k-mer.
func FuzzHandlerBatch(f *testing.F) {
	db, h := fuzzHandler(f)
	seqs := fuzzSeqs(db)
	batch := func(kmers ...string) []byte {
		body, _ := json.Marshal(batchRequest{Kmers: kmers})
		return body
	}
	f.Add([]byte{})
	f.Add(batch())
	f.Add(batch(seqs[:3]...))
	f.Add(batch(seqs[0], "ACGT"))
	f.Add(batch(strings.Repeat("N", fuzzK)))
	f.Add(batch(seqs[:3]...)[:20]) // truncated JSON
	many := make([]string, maxBatchKmers+1)
	for i := range many {
		many[i] = seqs[i%3]
	}
	f.Add(batch(many[:maxBatchKmers]...))
	f.Add(batch(many...))
	// One byte over the body limit, all of it inside the JSON value.
	f.Add([]byte(`{"kmers":[` + strings.Repeat(" ", maxBatchBody+1-12) + `]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("POST /batch (%d bytes) = %d %s, want 200 or 400", len(body), rec.Code, rec.Body)
		}
		// The handler decodes the first JSON value of the body; so does this.
		var req batchRequest
		wellFormed := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			len(body) <= maxBatchBody && len(req.Kmers) <= maxBatchKmers
		want := make([]uint32, len(req.Kmers))
		for i, q := range req.Kmers {
			var err error
			if want[i], err = db.Lookup(&dna.Random, q); err != nil {
				wellFormed = false
			}
		}
		if rec.Code != http.StatusOK {
			if wellFormed {
				t.Fatalf("POST /batch refused a well-formed batch of %d: %s", len(req.Kmers), rec.Body)
			}
			return
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(want) {
			t.Fatalf("POST /batch of %d answered %d results (%v)", len(want), len(resp.Results), err)
		}
		for i, r := range resp.Results {
			if r.Kmer != req.Kmers[i] || r.Count != want[i] || r.Present != (want[i] > 0) {
				t.Fatalf("result %d = %+v, database holds %d for %q", i, r, want[i], req.Kmers[i])
			}
		}
	})
}
