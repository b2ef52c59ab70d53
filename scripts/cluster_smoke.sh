#!/bin/sh
# cluster-smoke: end-to-end proof of the serving cluster (internal/kcluster).
#
# Topology: 2 cluster shards x 2 kserve replicas behind one kproxy. One
# shard-0 replica is started with an injected 50ms straggler delay (-slow),
# so the proxy's latency-quantile hedging must fire; one shard-1 replica is
# SIGKILLed in the middle of a >=100k-lookup kload burst, so the proxy's
# retry path must absorb a replica death. kload draws its keys from the KCD
# the cluster serves. The run passes only if kload reports zero request
# errors, zero per-key degradation markers and every lookup answered
# present, the proxy's metrics show hedges fired and the killed replica
# down, and both shard-0 replicas took a share of the lookups.
#
# The burst runs with distributed tracing on: kload samples 1-in-20
# requests, forwards W3C traceparent headers, and the proxy and replicas
# continue those traces. The per-process dumps are collected over
# /debug/trace, joined with `kmertools trace-join`, and the joined trace
# must show at least one trace ID crossing kload -> kproxy -> both shard-0
# replicas with the hedged attempt marked winner. kload also enforces a
# (generous) 2s:p99 SLO so the error-budget accounting path is exercised.
#
# Artifacts (kload summary, proxy metrics, process logs, joined trace) go
# to CLUSTER_SMOKE_OUT (default: a temp dir removed on exit) so CI can
# upload them. Run via `make cluster-smoke`; part of `make ci`.
set -eu

keep=1
if [ -z "${CLUSTER_SMOKE_OUT:-}" ]; then
    CLUSTER_SMOKE_OUT=$(mktemp -d)
    keep=0
fi
mkdir -p "$CLUSTER_SMOKE_OUT"
out="$CLUSTER_SMOKE_OUT"
bin=$(mktemp -d) # binaries and the KCD stay out of the uploaded artifacts
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    for p in $pids; do wait "$p" 2>/dev/null || true; done
    rm -rf "$bin"
    [ "$keep" = 0 ] && rm -rf "$out"
}
trap cleanup EXIT INT TERM

fail() {
    echo "cluster-smoke: FAIL: $*" >&2
    for f in "$out"/*.log; do
        [ -f "$f" ] && sed "s|^|cluster-smoke: $(basename "$f"): |" "$f" >&2
    done
    exit 1
}

# wait_addr LOGFILE PID: echo the "listening on" address once announced.
wait_addr() {
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/.*listening on //p' "$1" | head -n1)
        if [ -n "$addr" ]; then echo "$addr"; return 0; fi
        kill -0 "$2" 2>/dev/null || return 1
        sleep 0.1
        i=$((i + 1))
    done
    return 1
}

echo "cluster-smoke: counting a tiny synthetic dataset"
go run ./cmd/dedukt -okcd "$bin/smoke.kcd" -hist 0 -top 0 >/dev/null 2>&1 || fail "dedukt -okcd"
go run ./cmd/kmertools dump -db "$bin/smoke.kcd" -n 1 > "$out/dump.tsv" || fail "kmertools dump"
KMER=$(cut -f1 "$out/dump.tsv")
COUNT=$(cut -f2 "$out/dump.tsv")
[ -n "$KMER" ] || fail "could not extract a sample k-mer from the KCD"

echo "cluster-smoke: building kserve, kproxy, kload"
go build -o "$bin/kserve" ./cmd/kserve || fail "go build ./cmd/kserve"
go build -o "$bin/kproxy" ./cmd/kproxy || fail "go build ./cmd/kproxy"
go build -o "$bin/kload" ./cmd/kload || fail "go build ./cmd/kload"

echo "cluster-smoke: starting 2 shards x 2 replicas (one 50ms straggler)"
# -trace-out (with the default -trace-sample 0) turns tracing on in
# continuation-only mode: the replica records spans for requests arriving
# with a sampled traceparent but never roots traces of its own, so the
# sampling decision stays with kload. Dumps are fetched live over
# /debug/trace; the exit files land in $bin and are discarded.
start_replica() { # name shard extra...
    name=$1; shard=$2; shift 2
    "$bin/kserve" -kcd "$bin/smoke.kcd" -addr 127.0.0.1:0 -shard "$shard" \
        -replica-id "$name" -trace-out "$bin/$name.exit-trace.json" "$@" 2> "$out/$name.log" &
    eval "${name}_pid=$!"
    pids="$pids $!"
    addr=$(wait_addr "$out/$name.log" "$!") || fail "$name never announced its address"
    eval "${name}_addr=$addr"
    echo "cluster-smoke: $name (shard $shard) on $addr"
}
start_replica r0a 0/2
start_replica r0b 0/2 -slow 50ms    # straggler: hedges must rescue its keys
start_replica r1a 1/2
start_replica r1b 1/2               # victim: killed mid-burst

"$bin/kproxy" -addr 127.0.0.1:0 -probe-interval 100ms -hedge-max 5ms \
    -trace-out "$bin/kproxy.exit-trace.json" \
    -replica "$r0a_addr" -replica "$r0b_addr" -replica "$r1a_addr" -replica "$r1b_addr" \
    2> "$out/kproxy.log" &
proxy_pid=$!
pids="$pids $proxy_pid"
PADDR=$(wait_addr "$out/kproxy.log" "$proxy_pid") || fail "kproxy never announced its address"
echo "cluster-smoke: kproxy on $PADDR"

# The registry must converge on ready (every shard has an Up replica).
i=0
while [ $i -lt 50 ]; do
    curl -sf "http://$PADDR/healthz" > "$out/healthz.json" 2>/dev/null \
        && [ "$(jq -r .status "$out/healthz.json")" = "ready" ] && break
    sleep 0.1
    i=$((i + 1))
done
[ "$(jq -r .status "$out/healthz.json" 2>/dev/null)" = "ready" ] || fail "cluster never became ready"

# A point lookup through the proxy returns the exact count the KCD holds.
curl -sf "http://$PADDR/kmer/$KMER" | jq -e ".count == $COUNT" >/dev/null \
    || fail "proxied GET /kmer/$KMER did not report count $COUNT"

echo "cluster-smoke: >=100k-lookup burst with a mid-run replica kill (traced, SLO 2s:p99)"
"$bin/kload" -q -kcd "$bin/smoke.kcd" -target "http://$PADDR" -n 1800 -batch 64 -c 8 -warmup 100 \
    -trace-sample 20 -trace-out "$out/trace_kload.json" -slo 2s:p99 \
    > "$out/kload.json" 2> "$out/kload.log" &
load_pid=$!
sleep 1
kill -9 "$r1b_pid" 2>/dev/null || fail "victim replica already gone before the kill"
echo "cluster-smoke: killed shard-1 replica $r1b_addr mid-burst"
if ! wait "$load_pid"; then
    fail "kload exited nonzero: $(cat "$out/kload.json" 2>/dev/null)"
fi

jq -e '.errors == 0 and .key_errors == 0' "$out/kload.json" >/dev/null \
    || fail "kload saw errors: $(cat "$out/kload.json")"
jq -e '.lookups >= 100000' "$out/kload.json" >/dev/null \
    || fail "kload completed $(jq .lookups "$out/kload.json") lookups, want >= 100000"
jq -e '.present == .lookups' "$out/kload.json" >/dev/null \
    || fail "only $(jq .present "$out/kload.json") of $(jq .lookups "$out/kload.json") lookups found a k-mer the cluster serves"
echo "cluster-smoke: $(jq -r .lookups "$out/kload.json") lookups, all present, 0 errors, p99 $(jq -r .latency.p99_us "$out/kload.json")us"

# The SLO accounting must be present, met (2s:p99 is deliberately
# generous), and carry the build stamp.
jq -e '.slo.met == true' "$out/kload.json" >/dev/null \
    || fail "SLO 2s:p99 not met: $(jq -c .slo "$out/kload.json")"
jq -e '.build.go_version != ""' "$out/kload.json" >/dev/null \
    || fail "kload summary is missing build info"
echo "cluster-smoke: SLO $(jq -r .slo.objective "$out/kload.json") met, burn rate $(jq -r .slo.budget_burn_rate "$out/kload.json")"

# The straggler forced hedging: the proxy must have fired hedged requests.
curl -sf "http://$PADDR/metrics" > "$out/kproxy_metrics.prom" || fail "kproxy /metrics"
hedges=$(awk '$1 == "kcluster_hedges_total" {print $2}' "$out/kproxy_metrics.prom")
[ -n "$hedges" ] && [ "$hedges" -gt 0 ] 2>/dev/null \
    || fail "kcluster_hedges_total = '$hedges', want > 0 under a 50ms straggler"
grep -q '^build_info{' "$out/kproxy_metrics.prom" \
    || fail "kproxy /metrics is missing build_info"
grep -q '^kcluster_stage_seconds_bucket{' "$out/kproxy_metrics.prom" \
    || fail "kproxy /metrics is missing kcluster_stage_seconds"

# The proxy takes a shard's Up replicas in turn: both shard-0 replicas,
# the straggler too, must have received lookups.
for name in r0a r0b; do
    eval "raddr=\$${name}_addr"
    served=$(curl -sf "http://$raddr/metrics" | awk '$1 == "kserve_requests_total" {print $2}')
    [ -n "$served" ] && [ "$served" -gt 0 ] 2>/dev/null \
        || fail "$name kserve_requests_total = '$served', want > 0"
done

echo "cluster-smoke: joining per-process trace dumps"
curl -sf "http://$PADDR/debug/trace" > "$out/trace_kproxy.json" || fail "kproxy /debug/trace"
curl -sf "http://$r0a_addr/debug/trace" > "$out/trace_r0a.json" || fail "r0a /debug/trace"
curl -sf "http://$r0b_addr/debug/trace" > "$out/trace_r0b.json" || fail "r0b /debug/trace"
go run ./cmd/kmertools trace-join -o "$out/trace_joined.json" \
    "$out/trace_kload.json" "$out/trace_kproxy.json" "$out/trace_r0a.json" "$out/trace_r0b.json" \
    2>> "$out/kload.log" || fail "kmertools trace-join"

# At least one sampled request must appear as ONE trace ID crossing every
# process tier: the kload root, the kproxy routing spans, and — because the
# straggler forces a hedge to the other shard-0 replica — BOTH r0a and r0b.
jq -e '[.traceEvents[] | select(.ph == "X") | {t: .args.trace, p: .args.proc}]
       | group_by(.t) | map([.[].p] | unique)
       | map(select(contains(["kload", "kproxy", "r0a", "r0b"]))) | length >= 1' \
    "$out/trace_joined.json" >/dev/null \
    || fail "no joined trace spans kload+kproxy+r0a+r0b: $(jq -c '[.traceEvents[] | select(.ph == "X") | {t: .args.trace, p: .args.proc}] | group_by(.t) | map([.[].p] | unique)' "$out/trace_joined.json")"

# The hedged attempt that rescued a straggled sub-batch must be annotated
# as the winner on the proxy's upstream span.
jq -e '[.traceEvents[] | select(.ph == "X" and .args.hedged == "true" and .args.outcome == "winner")] | length >= 1' \
    "$out/trace_joined.json" >/dev/null \
    || fail "no hedged upstream attempt marked winner in the joined trace"
echo "cluster-smoke: joined trace has $(jq '[.traceEvents[] | select(.ph == "X")] | length' "$out/trace_joined.json") spans across $(jq '[.traceEvents[] | select(.ph == "M" and .name == "process_name")] | length' "$out/trace_joined.json") processes"

# The killed replica must be marked down in the cluster view.
i=0
while [ $i -lt 50 ]; do
    curl -sf "http://$PADDR/healthz" > "$out/healthz.json" 2>/dev/null \
        && [ "$(jq -r --arg a "$r1b_addr" '.replicas[] | select(.addr == $a) | .state' "$out/healthz.json")" = "down" ] \
        && break
    sleep 0.1
    i=$((i + 1))
done
[ "$(jq -r --arg a "$r1b_addr" '.replicas[] | select(.addr == $a) | .state' "$out/healthz.json")" = "down" ] \
    || fail "killed replica $r1b_addr never marked down: $(cat "$out/healthz.json")"

echo "cluster-smoke: PASS (hedges=$hedges)"
