#!/bin/sh
# CI gate: every PR must build cleanly, pass go vet and the discvet
# static-analysis suite (see internal/analysis), and pass the full
# test suite under the race detector. The SARIF report — which since
# discvet v4 carries the SSA-lite value-flow rules (poolescape,
# errdominate, onceonly) on top of the v3 interprocedural concurrency
# rules (lockorder, goroutineleak), the hot-path allocation rule
# (hotpathalloc), and the reader-first streaming rule (readerfirst) —
# is archived for code-scanning upload, with discvet's own wall-clock
# recorded in its invocations block (make vet-bench).
set -eux

go build ./...
make lint
make lint-baseline

# Full-module self-analysis with SARIF, wall-clock-guarded: the
# interprocedural fixpoints (taint, locksets, call graph) must stay
# interactive. 60s is ~10x current cost; breaching it means an
# analyzer regressed to something super-linear.
lint_start=$(date +%s)
make vet-bench
lint_end=$(date +%s)
lint_elapsed=$((lint_end - lint_start))
echo "discvet -sarif -walltime ./... took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 60 ]; then
    echo "discvet self-analysis exceeded the 60s budget (${lint_elapsed}s)" >&2
    exit 1
fi
# The archived report must mention the v3 and v4 rule tables and carry
# the recorded wall-clock.
for rule in lockorder goroutineleak hotpathalloc readerfirst poolescape errdominate onceonly; do
    grep -q "\"$rule\"" discvet.sarif || { echo "discvet.sarif is missing rule $rule" >&2; exit 1; }
done
grep -q '"wallClockMillis"' discvet.sarif || { echo "discvet.sarif is missing the recorded wall-clock" >&2; exit 1; }

go test -race ./...
# The fill and decode tests again with released DOM nodes poisoned
# (see the Makefile's poison target).
make poison
# The benchmark suite is a module of its own, so the root `go test ./...`
# never builds it; its smoke test catches an API change that breaks it.
(cd cmd/discbench/suite && GOFLAGS= GOPROXY=off GOWORK=off go test ./...)
# The five end-to-end examples read the public session and verdict API
# that no package test compiles against.
make examples
make faults
make chaos
# Eleven fuzz targets, 15 s each (see the Makefile).
make fuzz-smoke
# Smoke run of the paper's experiment tables (E1-E7, C1).
go run ./cmd/discbench -quick
