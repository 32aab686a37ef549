#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): builds the harness
# from the checkout's sources and runs it with the given arguments.
# Everything the go tool and the harness write stays inside the checkout,
# under .bench_build/ and benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/benchmark" -o "$build/bin/benchmark" . >&2
cd "$root"
exec "$build/bin/benchmark" "$@"
