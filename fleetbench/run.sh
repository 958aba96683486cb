#!/usr/bin/env bash
# Builds the fleet benchmark from source and runs it.  Every argument is
# passed through, e.g. from the repository root:
#
#	bash fleetbench/run.sh --workload warm --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ in the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build/fleetbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
