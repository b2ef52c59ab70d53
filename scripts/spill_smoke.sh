#!/bin/sh
# spill-smoke: end-to-end check of the out-of-core counting path. Builds
# a fixture with genreads, counts it with -spill-dir (two-pass disk
# bins), and asserts the spilled spectrum is identical to the in-memory
# run — alone and combined with -stream — that the spill spans and
# metrics show up in the observability artifacts, and that no bin files
# survive a successful run. Run via `make spill-smoke`; part of
# `make ci`. Artifacts go to SPILL_SMOKE_OUT (default: a temp dir
# removed on exit).
set -eu

keep=1
if [ -z "${SPILL_SMOKE_OUT:-}" ]; then
    SPILL_SMOKE_OUT=$(mktemp -d)
    keep=0
fi
mkdir -p "$SPILL_SMOKE_OUT"
cleanup() {
    if [ "$keep" = 0 ]; then rm -rf "$SPILL_SMOKE_OUT"; fi
}
trap cleanup EXIT INT TERM

fail() {
    echo "spill-smoke: FAIL: $*" >&2
    exit 1
}

command -v jq >/dev/null 2>&1 || fail "jq not installed"

reads="$SPILL_SMOKE_OUT/reads.fastq.gz"
bins="$SPILL_SMOKE_OUT/bins"
mjson="$SPILL_SMOKE_OUT/memory.json"
sjson="$SPILL_SMOKE_OUT/spill.json"
ssjson="$SPILL_SMOKE_OUT/spill_stream.json"
trace="$SPILL_SMOKE_OUT/spill_trace.json"
metrics="$SPILL_SMOKE_OUT/spill_metrics.prom"

echo "spill-smoke: generating fixture"
go run ./cmd/genreads -genome-len 20000 -coverage 6 -seed 5 -o "$reads" \
    2>/dev/null || fail "genreads"

echo "spill-smoke: in-memory run"
go run ./cmd/dedukt -in "$reads" -nodes 2 -json \
    > "$mjson" 2>/dev/null || fail "dedukt in-memory run"

echo "spill-smoke: spilled run over 16 bins"
go run ./cmd/dedukt -in "$reads" -nodes 2 -spill-dir "$bins" -spill-bins 16 \
    -json > "$sjson" 2>/dev/null || fail "dedukt spilled run"
jq -e '.spilled == true and .spill_bins == 16' \
    "$sjson" >/dev/null || fail "spilled JSON missing spill fields"

echo "spill-smoke: spilled+streamed run under a 4M budget"
go run ./cmd/dedukt -in "$reads" -nodes 2 -spill-dir "$bins" -spill-bins 16 \
    -stream -mem-budget 4M -json \
    > "$ssjson" 2>/dev/null || fail "dedukt spilled+streamed run"
jq -e '.spilled == true and .streamed == true and .rounds >= 2' \
    "$ssjson" >/dev/null || fail "spilled+streamed JSON missing fields"

echo "spill-smoke: comparing spectra"
mcount=$(jq -S '[.total_kmers, .distinct_kmers, .histogram]' "$mjson")
scount=$(jq -S '[.total_kmers, .distinct_kmers, .histogram]' "$sjson")
sscount=$(jq -S '[.total_kmers, .distinct_kmers, .histogram]' "$ssjson")
[ "$scount" = "$mcount" ] \
    || fail "spilled spectrum differs from in-memory spectrum"
[ "$sscount" = "$mcount" ] \
    || fail "spilled+streamed spectrum differs from in-memory spectrum"

echo "spill-smoke: checking bin hygiene"
leftover=$(find "$bins" -name '*.spill*' -o -name '*.partial' | wc -l)
[ "$leftover" = 0 ] || fail "successful runs left $leftover bin files in $bins"

# --- traced + metered spilled run: pass 1 must emit spill_write spans,
# pass 2 bin_count spans, and the registry must carry the spill series.
echo "spill-smoke: traced spilled run"
go run ./cmd/dedukt -in "$reads" -nodes 2 -spill-dir "$bins" -spill-bins 16 \
    -hist 0 -top 0 -trace-out "$trace" -metrics-out "$metrics" \
    >/dev/null 2>&1 || fail "dedukt traced spilled run"
jq -e . "$trace" >/dev/null || fail "spill trace is not valid JSON"
jq -e '[.traceEvents[] | select(.ph == "X" and .name == "spill_write")]
       | length > 0' \
    "$trace" >/dev/null || fail "trace missing spill_write spans"
jq -e '[.traceEvents[] | select(.ph == "X" and .name == "bin_count")]
       | length > 0' \
    "$trace" >/dev/null || fail "trace missing bin_count spans"
grep -q '^pipeline_spill_bytes_total [1-9]' "$metrics" \
    || fail "metrics missing pipeline_spill_bytes_total"
grep -q '^pipeline_spill_bins_total [1-9]' "$metrics" \
    || fail "metrics missing pipeline_spill_bins_total"

echo "spill-smoke: PASS"
