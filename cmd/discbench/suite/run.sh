#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example, from the repository root:
#
#   bash cmd/discbench/suite/run.sh --workload lib-warm --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, Go's own config and its temporary
# files stay in .bench_build/ at the repository root, so a run writes
# nothing outside the checkout and needs no writable home directory; the
# first run pays for it by compiling the standard library. Nothing is
# fetched from the network. The build fails, and nothing runs, when the
# sources of the module under test are not beside the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(cd "$here/../../.." && pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/discbench-suite" .)
exec "$out/discbench-suite" "$@"
