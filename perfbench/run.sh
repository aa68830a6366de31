#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig6 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files and the binary.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
