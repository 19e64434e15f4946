#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Run from the checkout
# root:
#
#	bash perfbench/run.sh --workload mine-balanced --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, config) stays under
# .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
(
	cd perfbench
	HOME="$out/home" XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
