#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; arguments go to the benchmark, e.g.
#   bash e2ebench/run.sh --workload point_rw --seed 1 --seconds 30 --trace 0
# Build outputs and run directories stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/e2ebench"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
		GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$out/config" \
		go build -o "$out/e2ebench" .
)
exec "$out/e2ebench" "$@"
