#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the checkout root:
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 35 --trace 0
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
