#!/bin/sh
# serve-smoke: build cmd/kserve, serve a tiny synthetic KCD, and assert the
# point, batch, and metrics endpoints answer correctly. Run via
# `make serve-smoke`; part of `make ci`.
set -eu

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    [ -f "$tmp/kserve.log" ] && sed 's/^/serve-smoke: kserve: /' "$tmp/kserve.log" >&2
    exit 1
}

echo "serve-smoke: counting a tiny synthetic dataset"
go run ./cmd/dedukt -okcd "$tmp/smoke.kcd" -hist 0 -top 0 >/dev/null 2>&1 || fail "dedukt -okcd"

# Pick a known (k-mer, count) pair to assert against, straight from the KCD.
go run ./cmd/kmertools dump -db "$tmp/smoke.kcd" -n 2 > "$tmp/dump.tsv" || fail "kmertools dump"
KMER1=$(sed -n '1p' "$tmp/dump.tsv" | cut -f1)
COUNT1=$(sed -n '1p' "$tmp/dump.tsv" | cut -f2)
KMER2=$(sed -n '2p' "$tmp/dump.tsv" | cut -f1)
COUNT2=$(sed -n '2p' "$tmp/dump.tsv" | cut -f2)
[ -n "$KMER1" ] && [ -n "$COUNT2" ] || fail "could not extract sample k-mers from KCD"

echo "serve-smoke: building and starting kserve"
go build -o "$tmp/kserve" ./cmd/kserve || fail "go build ./cmd/kserve"
"$tmp/kserve" -kcd "$tmp/smoke.kcd" -addr 127.0.0.1:0 2> "$tmp/kserve.log" &
pid=$!

ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/.*listening on //p' "$tmp/kserve.log" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$pid" 2>/dev/null || fail "kserve exited before listening"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$ADDR" ] || fail "kserve never announced its address"
echo "serve-smoke: kserve is up on $ADDR"

# Point lookup returns the exact count the database holds.
curl -sf "http://$ADDR/kmer/$KMER1" | grep -q "\"count\":$COUNT1" \
    || fail "GET /kmer/$KMER1 did not report count $COUNT1"

# Batch lookup returns both counts; an absent-length query 400s.
curl -sf -X POST "http://$ADDR/batch" -d "{\"kmers\":[\"$KMER1\",\"$KMER2\"]}" > "$tmp/batch.json" \
    || fail "POST /batch"
grep -q "\"count\":$COUNT1" "$tmp/batch.json" || fail "/batch missing count $COUNT1"
grep -q "\"count\":$COUNT2" "$tmp/batch.json" || fail "/batch missing count $COUNT2"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/kmer/ACGT")
[ "$code" = "400" ] || fail "malformed k-mer returned $code, want 400"

# Histogram, top-N, health and metrics all answer.
curl -sf "http://$ADDR/histogram" | grep -q '"distinct"' || fail "/histogram"
curl -sf "http://$ADDR/topn?n=3" | grep -q '"kmers"' || fail "/topn"
curl -sf "http://$ADDR/healthz" | grep -q '"status":"ok"' || fail "/healthz"

# /metrics defaults to Prometheus text exposition with typed families.
curl -sf "http://$ADDR/metrics" > "$tmp/metrics.prom" || fail "/metrics"
grep -q '^# TYPE kserve_requests_total counter' "$tmp/metrics.prom" \
    || fail "/metrics missing TYPE kserve_requests_total"
grep -q '^kserve_rejected_total 0$' "$tmp/metrics.prom" \
    || fail "/metrics missing kserve_rejected_total (or a lookup was shed)"
grep -q '^kserve_inflight ' "$tmp/metrics.prom" \
    || fail "/metrics missing the kserve_inflight gauge"
# The served prefix index is reported, at under 6 B per distinct k-mer.
awk '$1 == "kserve_index_bytes" { b = $2 } $1 == "kserve_distinct_kmers" { d = $2 }
     END { exit !(b > 0 && d > 0 && b < 6 * d) }' "$tmp/metrics.prom" \
    || fail "/metrics kserve_index_bytes missing or not below 6 x kserve_distinct_kmers"

# The legacy JSON snapshot stays reachable under ?format=json.
curl -sf "http://$ADDR/metrics?format=json" > "$tmp/metrics.json" || fail "/metrics?format=json"
grep -q '"requests":' "$tmp/metrics.json" || fail "/metrics json missing requests"

echo "serve-smoke: PASS"
