#!/bin/sh
# stream-smoke: end-to-end check of the streaming ingestion path. Builds
# gzip fixtures with genreads (one by .gz suffix, one by -gzip behind a
# plain name so magic-byte detection is exercised), streams them through
# dedukt under a small memory budget, and asserts the counted spectrum is
# identical to the in-memory run over the same files. Run via
# `make stream-smoke`; part of `make ci`. Artifacts go to
# STREAM_SMOKE_OUT (default: a temp dir removed on exit).
set -eu

keep=1
if [ -z "${STREAM_SMOKE_OUT:-}" ]; then
    STREAM_SMOKE_OUT=$(mktemp -d)
    keep=0
fi
mkdir -p "$STREAM_SMOKE_OUT"
cleanup() {
    if [ "$keep" = 0 ]; then rm -rf "$STREAM_SMOKE_OUT"; fi
}
trap cleanup EXIT INT TERM

fail() {
    echo "stream-smoke: FAIL: $*" >&2
    exit 1
}

command -v jq >/dev/null 2>&1 || fail "jq not installed"

a="$STREAM_SMOKE_OUT/a.fastq.gz"
b="$STREAM_SMOKE_OUT/b.fastq"   # gzip content behind a plain name
sjson="$STREAM_SMOKE_OUT/stream.json"
mjson="$STREAM_SMOKE_OUT/memory.json"
trace="$STREAM_SMOKE_OUT/stream_trace.json"

echo "stream-smoke: generating gzip fixtures"
go run ./cmd/genreads -genome-len 20000 -coverage 6 -seed 3 -o "$a" \
    2>/dev/null || fail "genreads a"
go run ./cmd/genreads -genome-len 20000 -coverage 6 -seed 4 -gzip -o "$b" \
    2>/dev/null || fail "genreads b"
# The magic-detection fixture must really be gzip despite its name.
[ "$(head -c 2 "$b" | od -An -tx1 | tr -d ' \n')" = "1f8b" ] \
    || fail "-gzip did not compress $b"

echo "stream-smoke: streamed run under a 4M budget"
go run ./cmd/dedukt -in "$a,$b" -stream -mem-budget 4M -nodes 2 -json \
    > "$sjson" 2>/dev/null || fail "dedukt streamed run"
echo "stream-smoke: in-memory run over the same files"
go run ./cmd/dedukt -in "$a,$b" -nodes 2 -json \
    > "$mjson" 2>/dev/null || fail "dedukt in-memory run"

echo "stream-smoke: validating $sjson"
jq -e '.streamed == true and .rounds >= 2 and .input_reads > 0
       and .input_bases > 0 and .mem_budget_bytes == 4194304' \
    "$sjson" >/dev/null || fail "streamed JSON missing stream fields"

echo "stream-smoke: comparing spectra"
scount=$(jq -S '[.total_kmers, .distinct_kmers, .histogram]' "$sjson")
mcount=$(jq -S '[.total_kmers, .distinct_kmers, .histogram]' "$mjson")
[ "$scount" = "$mcount" ] \
    || fail "streamed spectrum differs from in-memory spectrum"

# --- traced streamed run: every executed round must show up as parse
# spans with round args, and the run must actually be multi-round.
echo "stream-smoke: traced streamed run"
go run ./cmd/dedukt -in "$a,$b" -stream -mem-budget 4M -nodes 2 \
    -hist 0 -top 0 -trace-out "$trace" \
    >/dev/null 2>&1 || fail "dedukt traced streamed run"
jq -e . "$trace" >/dev/null || fail "stream trace is not valid JSON"
jq -e '[.traceEvents[] | select(.ph == "X" and .name == "parse")]
       | length > 0 and all(.args.round != null)' \
    "$trace" >/dev/null || fail "stream trace missing parse spans with round args"
jq -e '[.traceEvents[] | select(.ph == "X" and .name == "parse") | .args.round]
       | max >= 1' \
    "$trace" >/dev/null || fail "streamed trace shows only one round"

echo "stream-smoke: PASS"
