#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in
# and runs it with the given arguments, e.g.
#
#   bash bmcbench/run.sh --workload engines --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary, span dumps) stays under
# .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/bmcbench" build -o "$out/bmcbench" .
exec "$out/bmcbench" "$@"
