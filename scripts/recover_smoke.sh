#!/bin/sh
# recover-smoke: end-to-end check of checkpoint/restart and shrink
# recovery. Generates a fixture, counts it unfaulted, then kills rank 1
# at round 9 two ways: with -no-shrink the run fails and is resumed with
# -resume; without it the survivors shrink and finish in one go. Both
# recovered spectra must be bit-identical (total, distinct, histogram,
# top k-mers) to the unfaulted run, and neither may be incomplete. Run
# via `make recover-smoke`; part of `make ci`. Artifacts (including the
# recovery trace) go to RECOVER_SMOKE_OUT (default: a temp dir removed
# on exit).
set -eu

keep=1
if [ -z "${RECOVER_SMOKE_OUT:-}" ]; then
    RECOVER_SMOKE_OUT=$(mktemp -d)
    keep=0
fi
mkdir -p "$RECOVER_SMOKE_OUT"
cleanup() {
    if [ "$keep" = 0 ]; then rm -rf "$RECOVER_SMOKE_OUT"; fi
}
trap cleanup EXIT INT TERM

fail() {
    echo "recover-smoke: FAIL: $*" >&2
    exit 1
}

command -v jq >/dev/null 2>&1 || fail "jq not installed"

reads="$RECOVER_SMOKE_OUT/reads.fastq"
want="$RECOVER_SMOKE_OUT/want.json"
resumed="$RECOVER_SMOKE_OUT/resumed.json"
shrunk="$RECOVER_SMOKE_OUT/shrunk.json"
trace="$RECOVER_SMOKE_OUT/recover_trace.json"
# Shared flags: enough reads and small enough rounds that the kill at
# round 9 lands mid-run with checkpoints (rounds 2, 5, 8) before it.
run="-in $reads -stream -round-bases 500 -nodes 2 -json"

echo "recover-smoke: generating fixture"
go run ./cmd/genreads -genome-len 20000 -coverage 8 -mean-len 600 -seed 3 \
    -o "$reads" 2>/dev/null || fail "genreads"

echo "recover-smoke: unfaulted baseline run"
go run ./cmd/dedukt $run > "$want" 2>/dev/null || fail "unfaulted run"
jq -e '.rounds >= 12 and .incomplete == false' "$want" >/dev/null \
    || fail "baseline too short or incomplete (the kill round would not be reached)"

spectrum() {
    jq -S '[.total_kmers, .distinct_kmers, .histogram, .top_kmers]' "$1"
}

# --- Path 1: seeded kill under -no-shrink fails the run; -resume
# continues it from the checkpoint, bit-identical to the baseline.
echo "recover-smoke: seeded kill (rank 1, round 9) with -no-shrink"
if go run ./cmd/dedukt $run -ckpt-dir "$RECOVER_SMOKE_OUT/ckpt" -ckpt-rounds 3 \
    -no-shrink -fault-kill-rank 1 -fault-kill-round 9 \
    >/dev/null 2>"$RECOVER_SMOKE_OUT/killed.err"; then
    fail "killed run exited zero"
fi
grep -q "killed by injector" "$RECOVER_SMOKE_OUT/killed.err" \
    || fail "killed run did not report the injected kill"

echo "recover-smoke: resuming from the checkpoint"
go run ./cmd/dedukt $run -resume "$RECOVER_SMOKE_OUT/ckpt" -ckpt-rounds 3 \
    > "$resumed" 2>/dev/null || fail "resume run"
jq -e '.incomplete == false and .resumed == true' "$resumed" >/dev/null \
    || fail "resumed run incomplete or not flagged resumed"
[ "$(spectrum "$want")" = "$(spectrum "$resumed")" ] \
    || fail "resumed spectrum differs from the unfaulted spectrum"

# --- Path 2: the same kill with shrink recovery enabled completes in
# one invocation — survivors absorb rank 1's share and replay.
echo "recover-smoke: same kill with shrink recovery"
go run ./cmd/dedukt $run -ckpt-dir "$RECOVER_SMOKE_OUT/ckpt2" -ckpt-rounds 3 \
    -fault-kill-rank 1 -fault-kill-round 9 -trace-out "$trace" \
    > "$shrunk" 2>/dev/null || fail "shrink-recovery run exited nonzero"
jq -e '.incomplete == false and .recovered == true and .dead_ranks == [1]
       and .checkpoints > 0' "$shrunk" >/dev/null \
    || fail "shrink-recovery run incomplete or missing recovery fields"
[ "$(spectrum "$want")" = "$(spectrum "$shrunk")" ] \
    || fail "shrink-recovered spectrum differs from the unfaulted spectrum"

echo "recover-smoke: validating $trace"
jq -e . "$trace" >/dev/null || fail "recovery trace is not valid JSON"
jq -e '[.traceEvents[] | select(.ph == "i" and .name == "shrink_recovery")]
       | length > 0' "$trace" >/dev/null \
    || fail "recovery trace missing shrink_recovery instant"
jq -e '[.traceEvents[] | select(.ph == "i" and .name == "checkpoint_round")]
       | length > 0' "$trace" >/dev/null \
    || fail "recovery trace missing checkpoint_round instants"

echo "recover-smoke: PASS"
