#!/usr/bin/env bash
# benchpair: the paired comparison a performance claim needs
# (choosing-metrics §8), as one command.
#
#   scripts/benchpair.sh <parent-checkout> <change-checkout> \
#       --workload W --pairs N [--seed S] [--trace 0|1] [--claim METRIC]
#
# Runs `bash bench/run.sh` of workload W alternately in the two checkouts —
# N pairs on seed S (default 1) and always one more on the held-out seed
# 20240917, which side goes first alternating from pair to pair — and prints,
# for the end-to-end metrics and every per-layer row the runs report, both
# sides' median and quartiles, the change of the median, and the pairs the
# change won (a tie counts for neither side). Each run also appends one JSON
# line, keyed by the commit the benchmark itself reports, to
# BENCH_HISTORY.jsonl at the root of the repository this script lives in.
#
# --claim METRIC judges the gain claimed on that metric by the rule of
# choosing-metrics §8: met when at least ten pairs ran, the change won at
# least nine tenths of them (ties for neither side) and the medians lie apart,
# the change's on the better side, by more than the distance between the
# parent's own quartiles. The verdict is printed and appended to the history as one
# {"claim": …, "verdict": …} line per invocation; the exit status is 0 either
# way — a claim that is not met is a result, not a failure of the tool.
#
# The checkouts must be separate directories (`git clone` or `git archive`
# of the parent; the working tree of the change), each built by its own
# bench/run.sh into its own .bench_build/. Every run lasts BENCHMARK.json's
# run_seconds, the same on both sides; a timing claim needs --trace 0 runs,
# the per-layer probes come with --trace 1.
set -euo pipefail

held_out=20240917
usage() {
    sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workload= pairs= seed=1 trace=0 claim=
while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --trace) trace=$2 ;;
    --claim) claim=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] && [ -n "$pairs" ] || usage
[ "$parent" != "$change" ] || { echo "benchpair: parent and change are the same directory" >&2; exit 2; }

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
history=$root/BENCH_HISTORY.jsonl
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
[ -n "$seconds" ] || { echo "benchpair: no run_seconds in $root/BENCHMARK.json" >&2; exit 2; }
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run <side> <checkout> <pair> <seed> <went-first>: one benchmark run. Its
# metric rows (name, value, direction) go to $work/<side>.<pair>; the same
# values go to the history as one JSON line.
run() {
    local side=$1 dir=$2 pair=$3 runseed=$4 first=$5 out=$work/$1.$3.out
    if ! bash "$dir/bench/run.sh" --workload "$workload" --seed "$runseed" --seconds "$seconds" --trace "$trace" >"$out" 2>&1; then
        cat "$out" >&2
        echo "benchpair: $side run of pair $pair failed" >&2
        exit 1
    fi
    # A metric row is: name, number, unit, lower|higher, ...
    awk '$4 ~ /^(lower|higher)$/ && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ && !seen[$1]++ { print $1, $2, $4 }' "$out" >"$work/$side.$pair"
    local commit result
    commit=$(sed -n 's/^environment .*"commit":"\([^"]*\)".*/\1/p' "$out")
    echo "${commit:-unknown}" >"$work/$side.commit"
    result=$(tail -n 1 "$out")
    {
        printf '{"time":"%s","commit":"%s","side":"%s","workload":"%s","seed":%s,"trace":%s,"seconds":%s,"pair":%s,"first":%s,' \
            "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "${commit:-unknown}" "$side" "$workload" "$runseed" "$trace" "$seconds" "$pair" "$first"
        printf '"result":%s,"metrics":{' "$(printf '%s' "$result" | sed 's/,"metrics":.*/}/')"
        awk '{ printf "%s\"%s\":%s", (NR > 1 ? "," : ""), $1, $2 }' "$work/$side.$pair"
        printf '}}\n'
    } >>"$history"
    echo "pair $pair seed $runseed $side: $(printf '%s' "$result" | cut -c1-120)" >&2
}

total=$((pairs + 1))
for pair in $(seq 1 "$total"); do
    runseed=$seed
    [ "$pair" -le "$pairs" ] || runseed=$held_out
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair" "$runseed" true
        run change "$change" "$pair" "$runseed" false
    else
        run change "$change" "$pair" "$runseed" true
        run parent "$parent" "$pair" "$runseed" false
    fi
done

echo
echo "$workload, $pairs pairs on seed $seed + 1 on held-out seed $held_out, --seconds $seconds --trace $trace"
for pair in $(seq 1 "$total"); do
    awk -v pair="$pair" '{ print FILENAME ~ /\/parent\.[0-9]+$/ ? "parent" : "change", pair, $1, $2, $3 }' "$work/parent.$pair" "$work/change.$pair"
done | awk -v claim="$claim" -v verdict="$work/verdict" '
function quantile(v, n, q,    pos, lo) {
    pos = (n - 1) * q + 1; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function summary(side, name,    n, i, v, vals) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, name) in val) vals[++n] = val[side, i, name]
    # insertion sort: a dozen values
    for (i = 2; i <= n; i++) { v = vals[i]; for (j = i - 1; j >= 1 && vals[j] > v; j--) vals[j + 1] = vals[j]; vals[j + 1] = v }
    med[side] = quantile(vals, n, 0.5); q1[side] = quantile(vals, n, 0.25); q3[side] = quantile(vals, n, 0.75)
    return sprintf("%.6g [%.6g-%.6g]", med[side], q1[side], q3[side])
}
{
    val[$1, $2, $3] = $4 + 0; better[$3] = $5
    if (!($3 in order)) { order[$3] = ++rows; names[rows] = $3 }
    if ($2 > pairs) pairs = $2
}
END {
    printf "%-36s %-6s %-34s %-34s %8s  %s\n", "metric", "better", "parent median [q1-q3]", "change median [q1-q3]", "change", "pairs won"
    for (r = 1; r <= rows; r++) {
        name = names[r]; won = lost = 0
        for (i = 1; i <= pairs; i++) {
            if (!(("parent", i, name) in val) || !(("change", i, name) in val)) continue
            d = val["change", i, name] - val["parent", i, name]
            if (better[name] == "higher") d = -d
            if (d < 0) won++; else if (d > 0) lost++
        }
        p = summary("parent", name); c = summary("change", name)
        delta = med["parent"] != 0 ? sprintf("%+.2f%%", 100 * (med["change"] - med["parent"]) / med["parent"]) : "n/a"
        printf "%-36s %-6s %-34s %-34s %8s  %d/%d (lost %d, tied %d)\n", name, better[name], p, c, delta, won, pairs, lost, pairs - won - lost
        if (name == claim) {
            gain = better[name] == "higher" ? med["change"] - med["parent"] : med["parent"] - med["change"]
            met = 10 * won >= 9 * pairs && gain > q3["parent"] - q1["parent"]
            printf "\"better\":\"%s\",\"pairs\":%d,\"won\":%d,\"lost\":%d,\"tied\":%d,\"parent_median\":%.6g,\"parent_q1\":%.6g,\"parent_q3\":%.6g,\"change_median\":%.6g,\"change_q1\":%.6g,\"change_q3\":%.6g,\"verdict\":\"%s\"\n", \
                better[name], pairs, won, lost, pairs - won - lost, med["parent"], q1["parent"], q3["parent"], med["change"], q1["change"], q3["change"], pairs < 10 ? "too few pairs" : met ? "met" : "not met" >verdict
        }
    }
}'
if [ -n "$claim" ]; then
    [ -s "$work/verdict" ] || { echo "benchpair: no run reported the claimed metric $claim" >&2; exit 2; }
    line=$(printf '{"time":"%s","claim":"%s","workload":"%s","parent":"%s","change":"%s","seed":%s,"held_out_seed":%s,"trace":%s,"seconds":%s,%s}' \
        "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$claim" "$workload" "$(cat "$work/parent.commit")" "$(cat "$work/change.commit")" \
        "$seed" "$held_out" "$trace" "$seconds" "$(cat "$work/verdict")")
    echo "$line" >>"$history"
    echo "claim: $line"
fi
echo "history: $history"
