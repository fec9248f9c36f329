#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it.
# Run from the repository root, for example:
#
#   bash nsbench/run.sh --workload dense-256 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and config directory (where the go
# command keeps telemetry counters) live in .bench_build/ too, so a run
# writes nothing outside the checkout. Outside a repository checkout
# (no netscatter module next to nsbench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/nsbench" && go build -trimpath -o "$out/nsbench" .)
exec "$out/nsbench" "$@"
