#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root, e.g.  bash benchmark/run.sh --workload raw-w3 --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$out/mbabenchmark" .
exec "$out/mbabenchmark" "$@"
