#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload join-inner --seed 1 --seconds 36 --trace 0
#
# Build outputs, the Go build cache and span files stay in .bench_build
# (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --spec BENCHMARK.json --out "$out" "$@"
