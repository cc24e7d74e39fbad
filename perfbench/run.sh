#!/usr/bin/env bash
# Builds the benchmark driver and the CLIs under test (cmd/experiments,
# cmd/stored) from the checkout this is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload cold-quick --seed 1 --seconds 5 --trace 0
#
# Run it from the root of the checkout. Every build product, cache and
# scratch file stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"

# Keep the toolchain's caches and config inside the checkout, and never
# let it reach for a network toolchain or module proxy.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/" ./cmd/experiments ./cmd/stored

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
