# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race fuzz fuzz-seeds bench bench-build serve-smoke cluster-smoke trace-smoke stream-smoke recover-smoke spill-smoke experiments examples lint ci clean

all: build test

# The full gate CI runs: build, formatting/vet lint, race-enabled tests,
# every fuzz target over its seed corpus, the separately built benchmark
# module, and the serving-, cluster-, tracing-, streaming-, recovery- and
# spill-layer smoke tests.
ci: build lint race fuzz-seeds bench-build serve-smoke cluster-smoke trace-smoke stream-smoke recover-smoke spill-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# internal/expt alone takes about 510 s under the race detector, past go
# test's default 10-minute limit once it shares the cores with pipeline.
# The in-place table growth is run again at 1, 2 and 4 cores: it happens
# between concurrent kernel launches.
race:
	$(GO) test -race -timeout 40m ./...
	$(GO) test -race -cpu 1,2,4 -run 'Atomic' ./internal/kcount/

# Short live-fuzz pass over every fuzz target (seeds always run under `test`).
# The HTTP handler targets cap minimisation: their coverage varies run to run
# (pools, encoder caches), so Go would otherwise spend its default 60 s
# minimising every "interesting" input and fuzz nothing meanwhile.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReader -fuzztime 30s ./internal/fastq/
	$(GO) test -run xxx -fuzz FuzzStream -fuzztime 30s ./internal/fastq/
	$(GO) test -run xxx -fuzz FuzzSupermerInvariants -fuzztime 30s ./internal/minimizer/
	$(GO) test -run xxx -fuzz FuzzAtomicReserve -fuzztime 30s ./internal/kcount/
	$(GO) test -run xxx -fuzz FuzzTableReserve -fuzztime 30s ./internal/kcount/
	$(GO) test -run xxx -fuzz FuzzDatabase -fuzztime 30s ./internal/kcount/
	$(GO) test -run xxx -fuzz FuzzWireRoundTrip -fuzztime 30s ./internal/kernels/
	$(GO) test -run xxx -fuzz FuzzWireCorruptInput -fuzztime 30s ./internal/kernels/
	$(GO) test -run xxx -fuzz FuzzParseKmers -fuzztime 30s ./internal/kernels/
	$(GO) test -run xxx -fuzz FuzzTraceparent -fuzztime 30s ./internal/obs/
	$(GO) test -run xxx -fuzz FuzzSpillBin -fuzztime 30s ./internal/pipeline/
	$(GO) test -run xxx -fuzz FuzzGPUCount -fuzztime 30s ./internal/pipeline/
	$(GO) test -run xxx -fuzz FuzzCheckpointManifest -fuzztime 30s ./internal/recover/
	$(GO) test -run xxx -fuzz FuzzHandlerKmer -fuzztime 30s -fuzzminimizetime 5s ./internal/kserve/
	$(GO) test -run xxx -fuzz FuzzHandlerBatch -fuzztime 30s -fuzzminimizetime 5s ./internal/kserve/
	$(GO) test -run xxx -fuzz FuzzProxyKmer -fuzztime 30s -fuzzminimizetime 5s ./internal/kcluster/
	$(GO) test -run xxx -fuzz FuzzProxyBatch -fuzztime 30s -fuzzminimizetime 5s ./internal/kcluster/

# Run every fuzz target over its checked-in seed corpus only (fast,
# deterministic — what `ci` uses).
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/fastq/ ./internal/minimizer/ ./internal/kcount/ ./internal/kernels/ ./internal/obs/ ./internal/pipeline/ ./internal/recover/ ./internal/kserve/ ./internal/kcluster/

bench:
	$(GO) test -bench=. -benchmem ./...

# bench/ is a module of its own (it is the repository's benchmark: see
# BENCHMARK.json and `bash bench/run.sh`), so the root build and test never
# compile it. Vet and test it here so an API change under internal/ that
# breaks it fails CI.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# End-to-end smoke test of the query service: count a tiny synthetic
# dataset, serve the KCD with cmd/kserve, curl /kmer, /batch and /metrics,
# and assert the responses.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the serving cluster: 2 shards x 2 kserve
# replicas behind kproxy, a >=100k-lookup kload burst with a mid-run
# SIGKILL of one replica and an injected 50ms straggler, asserting zero
# errors, hedges fired, and the dead replica marked down. Artifacts (kload
# summary, proxy metrics, logs) land in CLUSTER_SMOKE_OUT (default: a temp
# dir) so CI can upload them.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# End-to-end smoke test of the observability layer: run a small traced
# pipeline, validate the Chrome trace JSON with jq, and check the
# Prometheus metrics exposition. Artifacts land in TRACE_SMOKE_OUT
# (default: a temp dir) so CI can upload them.
trace-smoke:
	sh scripts/trace_smoke.sh

# End-to-end smoke test of streaming ingestion: gzip fixtures (one only
# detectable by magic bytes), a streamed multi-round run under a small
# memory budget, and jq equality of the streamed vs in-memory spectrum.
stream-smoke:
	sh scripts/stream_smoke.sh

# End-to-end smoke test of checkpoint/restart and shrink recovery: a
# seeded rank kill resumed with -resume and the same kill absorbed
# in-place by the survivors, both asserted bit-identical (via jq) to the
# unfaulted spectrum. Artifacts (recovery trace) land in
# RECOVER_SMOKE_OUT so CI can upload them.
recover-smoke:
	sh scripts/recover_smoke.sh

# End-to-end smoke test of out-of-core counting: a spilled two-pass run
# over 16 disk bins (alone and combined with -stream), asserted
# bit-identical (via jq) to the in-memory spectrum, with spill spans in
# the trace, spill series in the metrics, and no bin files left behind.
# Artifacts land in SPILL_SMOKE_OUT so CI can upload them.
spill-smoke:
	sh scripts/spill_smoke.sh

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -run all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/metagenome
	$(GO) run ./examples/commvolume

# gofmt and vet, no package under internal/ that no command reaches
# (scripts/orphans.sh), and no fuzz target the `fuzz` recipe leaves out
# (scripts/fuzz_targets.sh).
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	sh scripts/orphans.sh
	sh scripts/fuzz_targets.sh

clean:
	$(GO) clean ./...
