#!/usr/bin/env bash
# Builds fastscbench from the sources of the checkout that holds this script
# and runs it there with the given arguments, for example
#
#   bash cmd/fastscbench/run.sh --workload sweep-warm --seed 1 --seconds 20 --trace 0
#
# Everything the go command writes (build cache, module cache, telemetry
# and config files) and the binary itself go under .bench_build/ at the
# checkout root, so neither the build nor the run touches anything outside
# the checkout. The first build compiles the standard library into that
# cache; later builds reuse it.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

env GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
    go build -C "$root/cmd/fastscbench" -o "$build/bin/fastscbench" .

cd "$root"
exec "$build/bin/fastscbench" "$@"
