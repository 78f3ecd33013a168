#!/usr/bin/env bash
# Builds applebench from source and runs it in the foreground.
#
#   bash cmd/applebench/run.sh --workload fattree_admit --seed 1 --seconds 10 --trace 0
#   bash cmd/applebench/run.sh -selfcheck
#   bash cmd/applebench/run.sh -race-smoke
#
# Run from the repository root. Everything it writes (the binary, Go's
# build cache, run envelopes, span files) goes under ./.bench_build, so
# nothing outside the checkout is touched. There is no `go run`, no
# background job and no child left behind: the build is one foreground
# `go build`, and the shell then replaces itself with the binary.
set -euo pipefail

root=$(pwd)
src="$root/cmd/applebench"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local

build() { (cd "$src" && go build "$@" .); }

if [ "${1:-}" = "-race-smoke" ]; then
    # Not part of the benchmark: rebuilds with the race detector and
    # repeats the reads-beside-writes smoke, which must report no race.
    build -race -o "$out/applebench-race"
    exec "$out/applebench-race" --workload fattree_mixed --scale 0.01 --seconds 2 --out "$out"
fi

build -o "$out/applebench"
exec "$out/applebench" --out "$out" "$@"
