#!/bin/sh
# orphans: print every package under internal/ that no command reaches
# through non-test imports, and fail if it prints any. The commands are the
# root module's main packages outside examples/ and the benchmark module
# (bench/). A package that only an example, a test or the root facade reaches
# has no caller to pay for it. Run via `make lint`.
set -eu
cd "$(dirname "$0")/.."

commands=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep -v '^dedukt/examples/')
# shellcheck disable=SC2086 # one argument per command
reached=$(
    {
        go list -deps $commands
        (cd bench && go list -deps ./...)
    } | sort -u
)

orphans=$(go list ./internal/... | while read -r pkg; do
    printf '%s\n' "$reached" | grep -qx "$pkg" || printf '%s\n' "${pkg#dedukt/}"
done)

if [ -n "$orphans" ]; then
    printf '%s\n' "$orphans"
    exit 1
fi
