#!/usr/bin/env bash
# Builds the benchmark and the memorexd daemon from source, then runs
# the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload pruned-cold --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain builds or caches stays in .bench_build/ at
# the repository root. See bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

cd "$root"
go -C bench build -o "$build/bin/bench" .
go build -o "$build/bin/memorexd" ./cmd/memorexd
exec "$build/bin/bench" -root "$root" -memorexd "$build/bin/memorexd" "$@"
