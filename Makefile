# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race lint lint-baseline vet-bench race faults chaos fuzz-smoke check bench metrics library-bench stream-bench cluster-bench tools examples cover clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Static analysis: go vet plus the project-specific discvet suite
# (constant-time comparisons, no math/rand key material, %w wrapping,
# single-XML-parser rule, lock hygiene, the interprocedural
# verify-before-execute dataflow rules, and the v3 concurrency and
# hot-path allocation rules). See internal/analysis.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/discvet ./...

# Like lint, but findings recorded in discvet.baseline.json are
# accepted: CI fails only on NEW findings. Refresh the baseline with
# `go run ./cmd/discvet -writebaseline discvet.baseline.json ./...`.
lint-baseline:
	$(GO) run ./cmd/discvet -baseline discvet.baseline.json ./...

# Full-module SARIF archive with the analysis wall-clock recorded in
# the report's invocations block, so discvet's own performance is
# tracked alongside its findings (ci.sh guards the 60s budget).
vet-bench:
	$(GO) run ./cmd/discvet -sarif -walltime ./... > discvet.sarif

race:
	$(GO) test -race ./...
	$(GO) test -race ./internal/analysis/...
	$(GO) test -race ./internal/library/ ./internal/player/
	$(GO) test -race ./internal/server/ ./internal/keymgmt/ ./internal/resilience/

# Fault-matrix gate: the deterministic fault-injection suites
# (internal/faults schedules driving resets, timeouts, stalls,
# truncation, corruption, 5xx bursts, and XKMS outages through the
# downloader, trust client, and end-to-end player pipeline), always
# under the race detector.
faults:
	$(GO) test -race -run 'Fault|Resilience|Retry|Resume|Degraded|Shed|Cancel|Mount|Outage' \
		./internal/faults/ ./internal/resilience/ ./internal/server/ \
		./internal/keymgmt/ ./internal/player/ ./internal/library/

# Chaos-matrix gate: the dependency-health suites — circuit breaker
# and bulkhead unit matrices, the health state machine, and the
# flap/brownout chaos scenarios that drive a 50%-available XKMS
# responder through the full breaker -> degraded -> fail-closed ->
# recovery cycle (see DESIGN.md §13). Deterministic: injected clocks
# and zeroed jitter, no wall-clock sleeps, always under -race.
chaos:
	$(GO) test -race -run 'Chaos|Flap|Brownout|Breaker|Bulkhead|Health|Drain|DependencyDown|RetryAfter' \
		./internal/health/ ./internal/faults/ ./internal/resilience/ \
		./internal/keymgmt/ ./internal/library/ ./internal/server/ ./internal/player/

# Differential fuzz smoke, 15 s per target: the byte-level scanner
# against the encoding/xml reference tokenizer, the canonicalizer core
# (DOM walk, every subset apex) and its token-fed form against the
# reference tree walker, and the streaming digest against the DOM
# pipeline (see DESIGN.md §14).
fuzz-smoke:
	$(GO) test ./internal/xmlstream -run '^$$' -fuzz '^FuzzTokenizerDifferential$$' -fuzztime 15s
	$(GO) test ./internal/c14n -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 15s
	$(GO) test ./internal/c14n -run '^$$' -fuzz '^FuzzStreamDifferential$$' -fuzztime 15s
	$(GO) test ./internal/xmldsig -run '^$$' -fuzz '^FuzzDigestDifferential$$' -fuzztime 15s

# The full gate CI runs on every change.
check: build lint lint-baseline race faults chaos fuzz-smoke metrics library-bench stream-bench cluster-bench

bench:
	$(GO) test -bench=. -benchmem ./...

# Observability smoke: run the instrumented player pipeline and emit
# the per-stage span medians (see internal/obs, DESIGN.md §9).
metrics:
	$(GO) run ./cmd/discbench -table obs -quick -obsjson BENCH_obs.json

# Shared-verification-library benchmark: cold vs warm vs contended
# opens (see internal/library, DESIGN.md §11). Writes the committed
# BENCH_library.json artifact.
library-bench:
	$(GO) run ./cmd/discbench -table library -quick -libjson BENCH_library.json

# Streaming-pipeline benchmark: single-pass reader-first cold path vs
# the DOM two-pass it replaced (see internal/xmlstream, DESIGN.md §14).
# Merges a "streaming" section into BENCH_obs.json without touching
# the obs stage table.
stream-bench:
	$(GO) run ./cmd/discbench -table stream -quick -streamjson BENCH_obs.json

# Cluster-tier benchmark: a loopback origin/edge fleet measuring the
# distributed verification tier's three claims — fleet-wide cold-miss
# collapse, cache-local warm opens, revocation convergence (see
# internal/cluster, DESIGN.md §16). Writes the committed
# BENCH_cluster.json artifact.
cluster-bench:
	$(GO) run ./cmd/discbench -table cluster -quick -clusterjson BENCH_cluster.json

# Regenerate every experiment table (E1-E7, C1).
tables:
	$(GO) run ./cmd/discbench

tools:
	mkdir -p bin
	$(GO) build -o bin/ ./cmd/...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gamestore
	$(GO) run ./examples/downloadapp
	$(GO) run ./examples/endtoend
	$(GO) run ./examples/licensedplayback

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Scratch outputs only: the committed BENCH_*.json artifacts are
# regenerated by `make metrics` / `make library-bench` /
# `make stream-bench` / `make cluster-bench`, not deleted.
clean:
	rm -rf bin cover.out test_output.txt bench_output.txt discvet.sarif
