#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sim-admit --seed 42 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory. Outside a
# repository checkout (no go.mod or internal/ beside bench/) it fails
# before printing a result.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d bench ]]; then
	echo "bench/run.sh: run from the root of a repository checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
