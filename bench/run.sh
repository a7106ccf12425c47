#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it from the checkout root with the arguments it was given. Everything
# the build writes — binary, build cache, temp files, Go's own bookkeeping —
# stays in .bench_build/ inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" \
  GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
  go build -C "$root/bench" -o "$build/sbxbench" .
cd "$root"
exec "$build/sbxbench" "$@"
