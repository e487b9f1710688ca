#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache and binary under
# .bench_build/, so nothing outside the checkout is written) and runs it from
# the checkout's root. Every argument goes to the program:
#
#   bash benchmark/run.sh --workload serve_hot --seed 7 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/odyssey-benchmark" .)
cd "$root"
exec "$build/odyssey-benchmark" "$@"
