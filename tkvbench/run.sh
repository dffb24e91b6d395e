#!/usr/bin/env bash
# Builds the tkv benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash tkvbench/run.sh --workload kv-large-read --seed 1 --seconds 20 --trace 0
#   bash tkvbench/run.sh --steady 10
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/tkvbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
stamp="$out/build-stamp"
touch "$stamp"
(cd "$bench" && go build -o "$out/tkvbench.bin" .)
# Flush what the build wrote, so that the fsyncs of a durable workload's
# first run do not pay for writing back the build cache.
find "$out" -type f -newer "$stamp" -print0 | xargs -0 -r sync --
exec "$out/tkvbench.bin" "$@"
