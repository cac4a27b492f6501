# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test lint lint-baseline vet-bench race poison faults chaos fuzz-smoke check bench tables tools examples cover clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

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

# Poisoned-release gate: under the domPoison tag, Document.Release
# overwrites every node, attribute and child slot it hands back with a
# sentinel, so a model, verdict or session that kept part of a released
# tree decodes wrong. Covers the xmldsig verdict table, the cluster
# decode oracle, the library fills (verdict heap charge included), the
# player's RunApplication tests and the cluster and server paths.
poison:
	$(GO) test -tags domPoison ./internal/xmldom ./internal/library ./internal/disc \
		./internal/player ./internal/cluster ./internal/server ./internal/xmldsig

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

# Fuzz smoke, 15 s per target: the byte-level scanner
# against the encoding/xml reference tokenizer, the canonicalizer core
# (DOM walk, every subset apex) and its token-fed form against the
# reference tree walker, the library's cache-key pass, memo cold and
# warm, against the DOM pipeline (see DESIGN.md §14), the shared base64
# decoder against strip-then-decode with the standard library,
# verification with the signature memo warm against verification with
# every memo reset (mutated SignedInfo, SignatureValue and KeyInfo; see
# DESIGN.md §11), the cluster frame decoder on arbitrary bytes (see
# DESIGN.md §16), and the four parsers of untrusted input: the DOM
# parser, the cluster model, the policy-set parser and the script
# interpreter.
fuzz-smoke:
	$(GO) test ./internal/xmlstream -run '^$$' -fuzz '^FuzzTokenizerDifferential$$' -fuzztime 15s
	$(GO) test ./internal/c14n -run '^$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 15s
	$(GO) test ./internal/c14n -run '^$$' -fuzz '^FuzzStreamDifferential$$' -fuzztime 15s
	$(GO) test ./internal/library -run '^$$' -fuzz '^FuzzKeyDifferential$$' -fuzztime 15s
	$(GO) test ./internal/xmldom -run '^$$' -fuzz '^FuzzBase64Text$$' -fuzztime 15s
	$(GO) test ./internal/xmldsig -run '^$$' -fuzz '^FuzzSignatureMemoDifferential$$' -fuzztime 15s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 15s
	$(GO) test ./internal/xmldom -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s
	$(GO) test ./internal/disc -run '^$$' -fuzz '^FuzzParseCluster$$' -fuzztime 15s
	$(GO) test ./internal/access -run '^$$' -fuzz '^FuzzParsePolicySet$$' -fuzztime 15s
	$(GO) test ./internal/markup -run '^$$' -fuzz '^FuzzScript$$' -fuzztime 15s

# The full gate CI runs on every change.
check: build lint lint-baseline race poison faults chaos fuzz-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

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

# Build and test outputs only.
clean:
	rm -rf bin cover.out test_output.txt bench_output.txt discvet.sarif
