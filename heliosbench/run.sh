#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash heliosbench/run.sh --workload serve-mix --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build writes (Go's
# build cache, temporary files, the binary) stays under .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/heliosbench" .)
exec "$out/heliosbench" "$@"
