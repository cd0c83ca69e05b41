#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it.
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
# Run from the checkout root. Build outputs and scratch files go under
# .bench_build/ (the Go build cache included), so nothing is written
# outside the checkout.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$bench" && go build -buildvcs=false -o "$root/.bench_build/charles-benchmark" .)
exec "$root/.bench_build/charles-benchmark" --root "$root" "$@"
