#!/usr/bin/env bash
# run.sh — the benchmark's entry point for the driver:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness (which in turn builds cmd/cfqd) from the checkout's
# source into .bench_build/ and runs it. Go's build cache, temporary files,
# module cache and telemetry counters (which live under the user config
# directory) are kept inside the checkout too, so nothing outside it is
# written.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOTOOLCHAIN=local \
       GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"
