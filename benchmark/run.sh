#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload clos_websearch --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) goes to .bench_build/ under the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C benchmark build -buildvcs=false -o "$out/dcpsim-benchmark" .
exec "$out/dcpsim-benchmark" "$@"
