#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# temporary files stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
