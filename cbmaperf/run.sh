#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root with the given arguments, e.g.
#
#   bash cbmaperf/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and all scratch state stay inside the
# checkout, under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off
(cd cbmaperf && go build -o "$build/bin/cbmaperf" .)
"$build/bin/cbmaperf" "$@"
