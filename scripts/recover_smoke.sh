#!/bin/sh
# recover-smoke: end-to-end check of checkpoint/restart. Generates a
# fixture, counts it unfaulted, then kills rank 1 at round 9 two ways:
# with -no-shrink the run fails and is resumed with -resume; without it
# the survivors restart from the last checkpoint in the same invocation
# and finish. Both recovered spectra must be bit-identical (total,
# distinct, histogram, top k-mers) to the unfaulted run; the in-process
# restart must also count exactly one kill and the baseline's input reads
# and bases. The in-process restart runs again without -stream, on the
# preloaded reads, whose checkpoint -resume then refuses. A checkpoint taken
# through -trimq resumes through the same trim alone. Last, a run whose every
# payload is dropped must fail with a lost exchange and write no database. Run
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
# round 9 lands mid-run with checkpoints (rounds 2, 5, 8) before it:
# -mem-budget 288000 caps every rank's round at 500 bases (12 ranks × 48
# budget bytes a base).
run="-in $reads -stream -mem-budget 288000 -nodes 2 -json"

echo "recover-smoke: generating fixture"
go run ./cmd/genreads -genome-len 20000 -coverage 8 -mean-len 600 -seed 3 \
    -o "$reads" 2>/dev/null || fail "genreads"

echo "recover-smoke: unfaulted baseline run"
go run ./cmd/dedukt $run > "$want" 2>/dev/null || fail "unfaulted run"
jq -e '.rounds >= 12' "$want" >/dev/null \
    || fail "baseline too short (the kill round would not be reached)"

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
jq -e '.resumed == true' "$resumed" >/dev/null \
    || fail "resumed run not flagged resumed"
[ "$(spectrum "$want")" = "$(spectrum "$resumed")" ] \
    || fail "resumed spectrum differs from the unfaulted spectrum"

# --- Path 2: the same kill without -no-shrink completes in one
# invocation — the survivors restart from the last checkpoint, absorb
# rank 1's share and replay. One injector spans the run (one kill), and
# the manifest's tallies carry the input totals across the restart. The
# round count is not compared: 11 ranks may take a round more than 12.
echo "recover-smoke: same kill, survivors restart in-process"
go run ./cmd/dedukt $run -ckpt-dir "$RECOVER_SMOKE_OUT/ckpt2" -ckpt-rounds 3 \
    -fault-kill-rank 1 -fault-kill-round 9 -trace-out "$trace" \
    > "$shrunk" 2>/dev/null || fail "restarted run exited nonzero"
jq -e '.recovered == true and .dead_ranks == [1]
       and .checkpoints > 0 and .faults.killed == 1' "$shrunk" >/dev/null \
    || fail "restarted run missing recovery fields, or not one kill"
[ "$(jq -c '[.input_reads, .input_bases]' "$want")" = "$(jq -c '[.input_reads, .input_bases]' "$shrunk")" ] \
    || fail "restarted run's input tallies differ from the baseline's"
[ "$(spectrum "$want")" = "$(spectrum "$shrunk")" ] \
    || fail "restarted spectrum differs from the unfaulted spectrum"

# --- Path 2b: the same kill on an in-memory run (no -stream). Run is
# the stream loop over its preloaded reads, so it checkpoints the same
# rounds and its survivors restart the same way, replaying the reads.
echo "recover-smoke: same kill, in-memory run restarts in-process"
memrun="$RECOVER_SMOKE_OUT/inmemory.json"
go run ./cmd/dedukt -in "$reads" -mem-budget 288000 -nodes 2 -json \
    -ckpt-dir "$RECOVER_SMOKE_OUT/ckpt3" -ckpt-rounds 3 \
    -fault-kill-rank 1 -fault-kill-round 9 \
    > "$memrun" 2>/dev/null || fail "in-memory restarted run exited nonzero"
jq -e '.streamed != true and .recovered == true and .faults.killed == 1' \
    "$memrun" >/dev/null \
    || fail "in-memory restarted run not recovered, or not one kill"
[ "$(spectrum "$want")" = "$(spectrum "$memrun")" ] \
    || fail "in-memory restarted spectrum differs from the unfaulted spectrum"

# --- Path 2c: the in-memory run's checkpoint addresses reads in memory,
# which name no files, so -resume over the -in files refuses it.
echo "recover-smoke: -resume refuses an in-memory run's checkpoint"
if go run ./cmd/dedukt -in "$reads" -mem-budget 288000 -nodes 2 -json \
    -ckpt-dir "$RECOVER_SMOKE_OUT/ckpt4" -ckpt-rounds 3 -no-shrink \
    -fault-kill-rank 1 -fault-kill-round 9 >/dev/null 2>&1; then
    fail "killed in-memory run exited zero"
fi
if go run ./cmd/dedukt $run -resume "$RECOVER_SMOKE_OUT/ckpt4" -ckpt-rounds 3 \
    >/dev/null 2>"$RECOVER_SMOKE_OUT/inmemory.err"; then
    fail "-resume of an in-memory run's checkpoint exited zero"
fi
grep -q "fingerprint" "$RECOVER_SMOKE_OUT/inmemory.err" \
    || fail "-resume of an in-memory checkpoint did not name the fingerprint mismatch"

# --- Path 4: the trim decides which records count, so a checkpoint taken
# through -trimq 35 resumed without -trimq is refused, naming the
# fingerprint mismatch; resumed under the same trim it counts exactly what
# the unfaulted trimmed run counts.
echo "recover-smoke: seeded kill of a -trimq 35 run, resumed without and with the trim"
trimmed="$RECOVER_SMOKE_OUT/trimmed.json"
go run ./cmd/dedukt $run -trimq 35 > "$trimmed" 2>/dev/null || fail "unfaulted trimmed run"
jq -e '.rounds >= 10' "$trimmed" >/dev/null \
    || fail "trimmed baseline too short (the kill round would not be reached)"
if go run ./cmd/dedukt $run -trimq 35 -ckpt-dir "$RECOVER_SMOKE_OUT/ckpt5" -ckpt-rounds 3 \
    -no-shrink -fault-kill-rank 1 -fault-kill-round 9 >/dev/null 2>&1; then
    fail "killed trimmed run exited zero"
fi
if go run ./cmd/dedukt $run -resume "$RECOVER_SMOKE_OUT/ckpt5" -ckpt-rounds 3 \
    >/dev/null 2>"$RECOVER_SMOKE_OUT/untrimmed.err"; then
    fail "untrimmed resume of a trimmed checkpoint exited zero"
fi
grep -q "fingerprint" "$RECOVER_SMOKE_OUT/untrimmed.err" \
    || fail "untrimmed resume did not name the fingerprint mismatch"
go run ./cmd/dedukt $run -trimq 35 -resume "$RECOVER_SMOKE_OUT/ckpt5" -ckpt-rounds 3 \
    > "$RECOVER_SMOKE_OUT/trim_resumed.json" 2>/dev/null || fail "trimmed resume run"
[ "$(spectrum "$trimmed")" = "$(spectrum "$RECOVER_SMOKE_OUT/trim_resumed.json")" ] \
    || fail "trimmed resumed spectrum differs from the unfaulted trimmed spectrum"

echo "recover-smoke: validating $trace"
jq -e . "$trace" >/dev/null || fail "recovery trace is not valid JSON"
jq -e '[.traceEvents[] | select(.ph == "i" and .name == "shrink_recovery")]
       | length > 0' "$trace" >/dev/null \
    || fail "recovery trace missing shrink_recovery instant"
jq -e '[.traceEvents[] | select(.ph == "i" and .name == "checkpoint_round")]
       | length > 0' "$trace" >/dev/null \
    || fail "recovery trace missing checkpoint_round instants"

# --- Path 3: every payload dropped. No retry can recover the round, so
# the run fails with a lost exchange: non-zero exit, the error on
# stderr, and no database, partial or otherwise.
echo "recover-smoke: every payload dropped"
lost="$RECOVER_SMOKE_OUT/lost.kcd"
if go run ./cmd/dedukt $run -fault-seed 1 -fault-drop 1 -okcd "$lost" \
    >/dev/null 2>"$RECOVER_SMOKE_OUT/lost.err"; then
    fail "run with every payload dropped exited zero"
fi
grep -q "exchange lost" "$RECOVER_SMOKE_OUT/lost.err" \
    || fail "failed run did not name the lost exchange"
[ ! -e "$lost" ] && [ ! -e "$lost.partial" ] \
    || fail "failed run wrote a database"

echo "recover-smoke: PASS"
