#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload learn_cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays under .bench_build/ in that directory; the last line of
# standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Keep every file the go command writes (build cache, module cache,
# temp files, config and telemetry) under .bench_build/.
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
	export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
	export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
	cd "$root/perfbench" && go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
