#!/usr/bin/env bash
# Paired parent/change runs of the benchmark, then a comparison.
#
#   bash bench/pairs.sh REV N [bench flags...]
#
# Builds the benchmark twice with the same benchmark code (this tree's
# bench/): once against commit REV ("parent") and once against the
# current working tree ("change"). It then runs N pairs of full
# benchmark runs, alternating which side runs first, and finishes with
# `bench -compare`. Extra flags (e.g. -seed 7) go to every run.
# Everything lands in .bench_build/pairs/.
set -euo pipefail

if [[ $# -lt 2 ]]; then
	echo "usage: bash bench/pairs.sh REV N [bench flags...]" >&2
	exit 2
fi
rev=$1
n=$2
shift 2

root=$(git rev-parse --show-toplevel)
out="$root/.bench_build/pairs"
rm -rf "$out"
mkdir -p "$out/src" "$out/parent" "$out/change"

# The parent tree is REV's files with this tree's benchmark dropped in,
# so both sides run identical benchmark code.
git -C "$root" archive "$rev" | tar -x -C "$out/src"
rm -rf "$out/src/bench"
cp -R "$root/bench" "$out/src/bench"
(cd "$out/src" && go build -o "$out/bench-parent" ./bench)
(cd "$root" && go build -o "$out/bench-change" ./bench)

for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "== pair $i/$n: $side" >&2
		(cd "$out" && "./bench-$side" -json "$out/$side/run-$(printf %03d "$i").json" "$@" >/dev/null)
	done
done

cd "$root"
"$out/bench-change" -compare "$out"/parent/*.json "$out"/change/*.json
