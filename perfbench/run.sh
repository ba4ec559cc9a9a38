#!/usr/bin/env bash
# Builds the perfbench benchmark and the dibad daemon from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload budget-step --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the span dumps stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# Compiling is not part of any measured figure.
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/dibad" powercap/cmd/dibad) >&2

exec "$out/perfbench" -dibad "$out/dibad" -out "$out" "$@"
