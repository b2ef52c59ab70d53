#!/bin/sh
# trace-smoke: run a small traced pipeline with injected faults, validate
# the Chrome trace-event JSON with jq, and check the Prometheus metrics
# exposition and the -report output. Run via `make trace-smoke`; part of
# `make ci`. Artifacts are written to TRACE_SMOKE_OUT (default: a temp
# dir removed on exit) so CI can upload them.
set -eu

keep=1
if [ -z "${TRACE_SMOKE_OUT:-}" ]; then
    TRACE_SMOKE_OUT=$(mktemp -d)
    keep=0
fi
mkdir -p "$TRACE_SMOKE_OUT"
cleanup() {
    if [ "$keep" = 0 ]; then rm -rf "$TRACE_SMOKE_OUT"; fi
}
trap cleanup EXIT INT TERM

fail() {
    echo "trace-smoke: FAIL: $*" >&2
    exit 1
}

command -v jq >/dev/null 2>&1 || fail "jq not installed"

# nine_byte_slots FILE RANKS: each of the RANKS ranks in the metrics FILE
# publishes a pipeline_table_bytes of 9 B a slot of its pipeline_table_slots —
# an 8-byte key and a one-byte count lane — and a pipeline_table_escaped_keys.
nine_byte_slots() {
    awk -v ranks="$2" '
        { label = $1; sub(/^[^{]*/, "", label) }
        /^pipeline_table_slots\{/ { slots[label] = $2 }
        /^pipeline_table_bytes\{/ { bytes[label] = $2 }
        /^pipeline_table_escaped_keys\{/ { escaped++ }
        END {
            for (l in slots) {
                n++
                if (bytes[l] != 9 * slots[l]) { print "  " l ": " bytes[l] " bytes for " slots[l] " slots"; bad = 1 }
            }
            exit bad || n != ranks || escaped != ranks
        }' "$1" >&2
}

trace="$TRACE_SMOKE_OUT/trace.json"
metrics="$TRACE_SMOKE_OUT/metrics.prom"
report="$TRACE_SMOKE_OUT/report.txt"

echo "trace-smoke: running a traced pipeline with injected faults"
go run ./cmd/dedukt -nodes 2 -hist 0 -top 0 \
    -fault-seed 1 -fault-delay 0.02 -fault-drop 0.02 \
    -report -trace-out "$trace" -metrics-out "$metrics" \
    > "$report" 2>&1 || { cat "$report" >&2; fail "dedukt traced run"; }

echo "trace-smoke: validating $trace"
jq -e . "$trace" >/dev/null || fail "trace is not valid JSON"
jq -e '.traceEvents | type == "array"' "$trace" >/dev/null \
    || fail "trace has no traceEvents array"
# At least one complete span per phase, each with a round arg.
for phase in parse stage_h2d exchange count; do
    jq -e --arg p "$phase" \
        '[.traceEvents[] | select(.ph == "X" and .name == $p)] | length > 0' \
        "$trace" >/dev/null || fail "trace has no $phase spans"
done
jq -e '[.traceEvents[] | select(.ph == "X") | .args.round] | all(. != null)' \
    "$trace" >/dev/null || fail "span missing round arg"
# Every rank got a named trace thread, and fault instants were recorded.
jq -e '[.traceEvents[] | select(.ph == "M" and .name == "thread_name")] | length == 12' \
    "$trace" >/dev/null || fail "expected 12 rank threads (2 nodes x 6 ranks)"
jq -e '[.traceEvents[] | select(.ph == "i")] | length > 0' \
    "$trace" >/dev/null || fail "no fault/retry instants recorded"

echo "trace-smoke: validating $metrics"
grep -q '^# TYPE pipeline_items_exchanged_total counter' "$metrics" \
    || fail "metrics missing pipeline_items_exchanged_total"
grep -q '^# TYPE mpisim_collectives_total counter' "$metrics" \
    || fail "metrics missing mpisim_collectives_total"
grep -q '^fault_injected_total{kind="drop"}' "$metrics" \
    || fail "metrics missing fault_injected_total"
grep -q '^gpusim_kernel_launches_total{kernel=' "$metrics" \
    || fail "metrics missing gpusim_kernel_launches_total"
for series in kernels_staging_bytes kernels_staging_slots kernels_staging_wait_seconds_total; do
    grep -q "^$series [0-9]" "$metrics" || fail "metrics missing $series"
done
# Per rank: the table's footprint and the wall time spent growing it in place.
for series in pipeline_table_bytes pipeline_table_grow_seconds; do
    [ "$(grep -c "^$series{rank=\"[0-9]*\"} [0-9]" "$metrics")" = 12 ] \
        || fail "metrics missing $series for some of the 12 ranks"
done
nine_byte_slots "$metrics" 12 || fail "GPU supermer run: want 9 table bytes a slot, and the escaped keys, on all 12 ranks"

echo "trace-smoke: validating -report output"
grep -q 'observability report:' "$report" || fail "-report printed no report"
grep -q 'slowest rank overall' "$report" || fail "-report missing slowest-rank attribution"
grep -q 'kernel staging pool: [1-9]' "$report" || fail "-report missing the kernel staging pool line"
grep -q 'counter tables: at most [1-9].* [0-9][0-9]* keys escaped their count lanes$' "$report" \
    || fail "-report missing the counter tables line or its escaped keys"

# --- GPU k-mer mode: ParseKmers keeps only its warp histogram between its
# passes, nothing per position, so the staging pool's high-water mark is a
# small fraction of the input's bases (≈ 0.28 B a base at 12 ranks; a key
# and a destination staged per position would be ≈ 2.5 B).
kjson="$TRACE_SMOKE_OUT/kmer.json"
kmetrics="$TRACE_SMOKE_OUT/kmer_metrics.prom"

echo "trace-smoke: running a GPU k-mer-mode pipeline"
go run ./cmd/dedukt -mode kmer -nodes 2 -hist 0 -top 0 \
    -json -metrics-out "$kmetrics" > "$kjson" 2>/dev/null \
    || fail "dedukt GPU k-mer run"
kbases=$(jq '.input_bases' "$kjson")
kstaging=$(awk '/^kernels_staging_bytes / {print $2}' "$kmetrics")
[ -n "$kstaging" ] || fail "k-mer metrics missing kernels_staging_bytes"
awk -v s="$kstaging" -v b="$kbases" 'BEGIN { exit !(b > 0 && s + 0 < b + 0) }' \
    || fail "k-mer staging held $kstaging bytes for $kbases input bases; want fewer bytes than bases"
nine_byte_slots "$kmetrics" 12 || fail "GPU k-mer run: want 9 table bytes a slot, and the escaped keys, on all 12 ranks"

# --- GPU table shape: on an lr8-shaped input (8x of 800-base reads over a
# genome a fifth repeats) each of 12 ranks receives ≈ 200 k k-mers, far past
# the count's minLaunch, so it sizes its table once from its arrival's sample
# slice: every rank's table ends at a load in [0.40, 0.50] (a power-of-two
# ladder left it near 0.3), and a k-mer-mode count is at most 4 launches —
# the sample, then the rest in free-slot windows (the ladder made 7–8). The
# synthetic -dataset inputs are all 30x or deeper, where a rank's k-mers
# outnumber its free slots several times over, so the input is generated.
lr8="$TRACE_SMOKE_OUT/lr8s.fastq"
go run ./cmd/genreads -genome-len 300000 -coverage 8 -repeat-frac 0.2 -model short \
    -mean-len 800 -err 0.002 -ambig 0.002 -o "$lr8" 2>/dev/null \
    || fail "genreads lr8-shaped input"
for mode in kmer supermer; do
    smetrics="$TRACE_SMOKE_OUT/shape_$mode.prom"
    echo "trace-smoke: checking the GPU $mode-mode table shape"
    go run ./cmd/dedukt -in "$lr8" -mode "$mode" -nodes 2 -hist 0 -top 0 \
        -metrics-out "$smetrics" >/dev/null 2>&1 || fail "dedukt GPU $mode run on the lr8-shaped input"
    awk -v mode="$mode" '
        /^pipeline_table_load_factor\{/ { n++; if ($2 < 0.40 || $2 > 0.50) { print "  " $0; bad = 1 } }
        /^pipeline_count_launches\{/ && mode == "kmer" && $2 > 4 { print "  " $0; bad = 1 }
        END { exit bad || n != 12 }' "$smetrics" >&2 \
        || fail "GPU $mode-mode table shape: want a load in [0.40, 0.50] on all 12 ranks (k-mer mode: at most 4 count launches)"
done

# --- CPU engine: it sizes each rank's table from a slice of the arrival, so
# it too publishes what that reservation asked for and the wall time it took
# (one node of the CPU layout is 42 ranks).
cmetrics="$TRACE_SMOKE_OUT/cpu_metrics.prom"
creport="$TRACE_SMOKE_OUT/cpu_report.txt"

echo "trace-smoke: running a traced CPU-engine pipeline"
go run ./cmd/dedukt -engine cpu -mode kmer -nodes 1 -hist 0 -top 0 \
    -report -metrics-out "$cmetrics" \
    > "$creport" 2>&1 || { cat "$creport" >&2; fail "dedukt CPU-engine run"; }
for series in pipeline_table_slots pipeline_table_reserved_keys pipeline_table_grow_seconds; do
    [ "$(grep -c "^$series{rank=\"[0-9]*\"} [0-9]" "$cmetrics")" = 42 ] \
        || fail "CPU-engine metrics missing $series for some of the 42 ranks"
done
grep -q '^pipeline_table_reserved_keys{rank="0"} [1-9]' "$cmetrics" \
    || fail "CPU-engine rank 0 reserved no table room"
nine_byte_slots "$cmetrics" 42 || fail "CPU-engine run: want 9 table bytes a slot, and the escaped keys, on all 42 ranks"
grep -q 'counter tables: at most [1-9][0-9]* slots holding [1-9][0-9]* keys, room reserved for [1-9]' "$creport" \
    || fail "CPU-engine -report missing the counter tables line"

# --- overlap pricing: a faulted multi-round run with -overlap must produce
# a valid trace whose retry spans nest inside their round's exchange span
# and report the overlapped modeled total. -overlap selects how the modeled
# total is priced and nothing else: its -json report must equal the serial
# one's but for the overlap fields. Both -json runs use one core, because
# the GPU count's modeled time depends on the order its warps' atomics
# land in otherwise.
otrace="$TRACE_SMOKE_OUT/overlap_trace.json"
oreport="$TRACE_SMOKE_OUT/overlap_report.txt"
ojson="$TRACE_SMOKE_OUT/overlap.json"
sjson="$TRACE_SMOKE_OUT/serial.json"
faults="-fault-seed 3 -fault-drop 0.05 -fault-corrupt 0.02"
# -mem-budget 4608000 caps every rank's round at 8 000 bases: 12 ranks × 48
# budget bytes a base.

echo "trace-smoke: running a faulted overlapped pipeline"
# shellcheck disable=SC2086
go run ./cmd/dedukt -nodes 2 -hist 0 -top 0 -mem-budget 4608000 -overlap \
    $faults -report -trace-out "$otrace" \
    > "$oreport" 2>&1 || { cat "$oreport" >&2; fail "dedukt overlapped run"; }
# shellcheck disable=SC2086
GOMAXPROCS=1 go run ./cmd/dedukt -nodes 2 -hist 0 -top 0 -mem-budget 4608000 -overlap \
    $faults -json > "$ojson" 2>/dev/null || fail "dedukt overlapped json run"
# shellcheck disable=SC2086
GOMAXPROCS=1 go run ./cmd/dedukt -nodes 2 -hist 0 -top 0 -mem-budget 4608000 \
    $faults -json > "$sjson" 2>/dev/null || fail "dedukt serial run"

echo "trace-smoke: validating $otrace"
jq -e . "$otrace" >/dev/null || fail "overlap trace is not valid JSON"
jq -e '[.traceEvents[] | select(.ph == "X" and .name == "retry")] | length > 0' \
    "$otrace" >/dev/null || fail "overlap trace has no retry spans"
# Every retry span nests inside an exchange span of the same rank & round.
jq -e '
    [.traceEvents[] | select(.ph == "X")] as $spans
    | [$spans[] | select(.name == "retry")]
    | all(. as $r
        | any($spans[];
            .name == "exchange" and .tid == $r.tid
            and .args.round == $r.args.round
            and .ts <= $r.ts and .ts + .dur >= $r.ts + $r.dur))' \
    "$otrace" >/dev/null || fail "retry span not nested in its exchange span"

echo "trace-smoke: validating overlapped report and JSON"
grep -q 'total (overlapped)' "$oreport" \
    || fail "overlap report missing the overlapped modeled total"
jq -e '.overlap == true and .rounds >= 2 and .overlap_total_sec > 0' \
    "$ojson" >/dev/null || fail "overlap JSON report missing overlap fields"
jq -e '.faults.retries > 0' "$sjson" >/dev/null || fail "serial run retried no round"
# Faults strike frames on arrival, and only frames still awaited, so each
# injected drop or corruption is exactly one bad frame.
jq -e '.faults.dropped + .faults.corrupted == .faults.bad_frames' "$sjson" >/dev/null \
    || fail "serial run: dropped + corrupted frames differ from bad frames"
same='del(.build, .overlap, .overlap_total_sec)'
jq -S "$same" "$sjson" > "$TRACE_SMOKE_OUT/serial_unpriced.json"
jq -S "$same" "$ojson" > "$TRACE_SMOKE_OUT/overlap_unpriced.json"
diff "$TRACE_SMOKE_OUT/serial_unpriced.json" "$TRACE_SMOKE_OUT/overlap_unpriced.json" >&2 \
    || fail "-overlap changed more than the modeled total"
scount=$(jq '[.total_kmers, .distinct_kmers]' "$sjson")

# --- hierarchical exchange: the same faulted multi-round run through the
# two-stage exchange must (a) record stage_h2d spans and report the host
# staging its modeled exchange includes (positive, and at most the whole
# exchange: the GPUDirect exchange is exchange_sec - staging_sec), (b)
# stage every round through the gather → leader_alltoall → scatter span
# triple, (c) count exactly what the flat serial run counts, and (d) report
# the collapsed fabric message count: 12 ranks at 6 per node is 2 leaders,
# so each round is 2² = 4 leader messages instead of 12² = 144.
htrace="$TRACE_SMOKE_OUT/hier_trace.json"
hmetrics="$TRACE_SMOKE_OUT/hier_metrics.prom"
hjson="$TRACE_SMOKE_OUT/hier.json"

echo "trace-smoke: running a faulted hierarchical pipeline"
# shellcheck disable=SC2086
go run ./cmd/dedukt -nodes 2 -hist 0 -top 0 -mem-budget 4608000 \
    -exchange hier \
    $faults -json -trace-out "$htrace" -metrics-out "$hmetrics" \
    > "$hjson" 2>/dev/null || fail "dedukt hierarchical run"

echo "trace-smoke: validating $htrace"
jq -e . "$htrace" >/dev/null || fail "hier trace is not valid JSON"
jq -e '[.traceEvents[] | select(.ph == "X" and .name == "stage_h2d")] | length > 0' \
    "$htrace" >/dev/null || fail "hier trace has no stage_h2d spans"
for phase in gather leader_alltoall scatter; do
    jq -e --arg p "$phase" \
        '[.traceEvents[] | select(.ph == "X" and .name == $p)] | length > 0' \
        "$htrace" >/dev/null || fail "hier trace has no $phase spans"
done

echo "trace-smoke: validating hierarchical counts and message metric"
jq -e '.exchange == "hier"' "$hjson" >/dev/null \
    || fail "hier JSON report does not record the strategy"
jq -e '.staging_sec > 0 and .staging_sec <= .exchange_sec' "$hjson" >/dev/null \
    || fail "hier JSON report's staging_sec is not positive and within exchange_sec"
jq -e '.faults.dropped + .faults.corrupted == .faults.bad_frames' "$hjson" >/dev/null \
    || fail "hier run: dropped + corrupted frames differ from bad frames"
hcount=$(jq '[.total_kmers, .distinct_kmers]' "$hjson")
[ "$hcount" = "$scount" ] \
    || fail "hier counts $hcount differ from flat serial counts $scount"
rounds=$(jq '.rounds' "$hjson")
want_msgs=$((4 * rounds))
got_msgs=$(awk '/^pipeline_exchange_messages_total\{strategy="hier"\}/ {print $2}' "$hmetrics")
[ "$got_msgs" = "$want_msgs" ] \
    || fail "hier message metric $got_msgs, want $want_msgs (4 per round x $rounds rounds)"

echo "trace-smoke: PASS"
