#!/usr/bin/env bash
# Measures the benchmark against itself: two sets of passes, A and B, of the
# same build, interleaved, each run exactly as the driver invokes it and each
# with its own seed. Prints the table of benchmark/NOISE.md.
#
#   benchmark/selfcheck.sh [passes per set, default 10] > benchmark/NOISE.md
#
# Takes about passes × 4 workloads × 2 sets × 31 s.
set -euo pipefail
cd "$(dirname "$0")/.."

passes=${1:-10}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
dir=benchmark/out/selfcheck
rm -rf "$dir" && mkdir -p "$dir"
seed=0
for pass in $(seq "$passes"); do
	for set in A B; do
		seed=$((seed + 1))
		for w in rmc_small rmc_bulk kvs_read kvs_write; do
			echo "selfcheck: set $set pass $pass/$passes $w seed $seed" >&2
			benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
				tail -n 1 >"$dir/$set-$pass-$w.json"
		done
	done
done
.bench_build/sonuma-benchmark -selfcheck "$dir"
