#!/bin/sh
# fuzz_targets: print every `func Fuzz…` in a _test.go file that the
# Makefile's `fuzz` target does not name, and fail if it prints any, so a
# new fuzz target cannot miss the live-fuzz pass. Run via `make lint`.
set -eu
cd "$(dirname "$0")/.."

# The fuzz target's recipe: from "fuzz:" to the first blank line.
named=$(awk '/^fuzz:/ { on = 1; next } on && /^$/ { exit } on' Makefile)

missing=$(find . -name '*_test.go' -exec sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' {} + |
    sort -u | while read -r fn; do
        printf '%s\n' "$named" | grep -q -- "-fuzz $fn " || printf '%s\n' "$fn"
    done)

if [ -n "$missing" ]; then
    printf '%s\n' "$missing"
    exit 1
fi
