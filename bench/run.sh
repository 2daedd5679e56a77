#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash bench/run.sh --workload suite-2t --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes to .bench_build/ under
# the root: the Go build cache, the binary, scratch profiles, traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$(dirname "$0")" && go build -o "$out/bench" .) >&2
exec "$out/bench" "$@"
