#!/usr/bin/env bash
# Builds khopd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash khopbench/run.sh --workload many_small --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, both binaries, the
# temporary khopd state dirs and each run's result directory.
set -euo pipefail

work=.bench_build
mkdir -p "$work/tmp"
abs=$(cd "$work" && pwd)
export GOCACHE="$abs/go-cache"
export GOMODCACHE="$abs/go-mod"
export GOTMPDIR="$abs/tmp"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd khopbench && go build -o "$abs/khopbench" . && go build -o "$abs/khopd" repro/cmd/khopd) >&2
exec "$work/khopbench" -khopd "$work/khopd" -work "$work" "$@"
