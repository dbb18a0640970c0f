#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it; every
# argument passes through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary build files, the go command's config and
# telemetry files and the benchmark's scratch files all stay under the
# build directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/run" "$@"
