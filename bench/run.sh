#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/xkserve and bench/xkload
# once into .bench_build/ (Go's build cache lives there too, so nothing is
# written outside the checkout) and runs xkload with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTMPDIR="$build/tmp"
(cd "$root" && go build -o "$build/bin/xkserve" ./cmd/xkserve)
(cd "$root/bench" && go build -o "$build/bin/xkload" ./xkload)
cd "$root"
exec "$build/bin/xkload" -work "$build" "$@"
