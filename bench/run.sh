#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload fin1 [--seed 1] [--seconds 20] [--trace 0|1]
#
# Everything the build and the run leave behind stays inside the checkout:
# the binary and Go's caches under .bench_build/, traces and spans under
# bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$root/bench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/bench" .
)
cd "$root"
exec "$build/bench" "$@"
