#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds gfdbench from source inside the
# checkout and runs it with the driver's arguments. Everything the build
# writes (compiler cache, temp files, binaries) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own bookkeeping inside the checkout.
export GOWORK=off GOFLAGS= GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/benchmark" && go build -o "$build/bin/gfdbench" ./gfdbench)
exec "$build/bin/gfdbench" -root "$root" "$@"
