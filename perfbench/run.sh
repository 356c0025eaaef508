#!/usr/bin/env bash
# Builds the benchmark program and the cmd/simd daemon from the sources
# of the checkout it is run from, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-grid --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binaries, trace spans)
# stays under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home"
export XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Build both binaries on every run: the Go build cache above makes an
# unchanged rebuild cheap, and build time is outside every measurement.
(cd "$here" && go build -o "$build/perfbench" . && go build -o "$build/simd" twolm/cmd/simd) >&2

exec "$build/perfbench" -simd "$build/simd" -golden "$here/golden" -spans "$build/spans" "$@"
