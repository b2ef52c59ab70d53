#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark into
# .bench_build/ at the root of the checkout and runs it with the driver's
# arguments (--workload, --seed, --seconds, --trace). Everything the build
# and the run write (Go's build cache, temporary files, spill bins, KCD and
# FASTQ fixtures, traces) stays under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/kbench" .
exec "$build/kbench" "$@"
