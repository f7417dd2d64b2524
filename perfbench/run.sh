#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-random-n256 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare before.jsonl after.jsonl
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/perfbench in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
