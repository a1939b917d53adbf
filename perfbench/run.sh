#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# runs it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload drift-epoch --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, .bench_build otherwise).
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$HOME"

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
