#!/usr/bin/env bash
# The repository's benchmark, one command.
#
#   benchmark/run.sh                      all four workloads, end-to-end metrics
#   benchmark/run.sh -trace               all four, traced pass (per-layer metrics, spans)
#   benchmark/run.sh --workload rmc_small --seed 7 --seconds 26 --trace 0
#
# It builds the binary once (compile time never enters setup_s), then runs
# each workload in a fresh process. Every metric is printed by name with its
# unit; the last line of each run is the JSON result. Build products, results
# and traces stay inside the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(rmc_small rmc_bulk kvs_read kvs_write)
per_second=4 # --seconds is cut into windows of 250 ms
workload="" seed=1 seconds=26 trace=0 out=benchmark/out
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | -workload) workload=$2 && shift 2 ;;
	--seed | -seed) seed=$2 && shift 2 ;;
	--seconds | -seconds) seconds=$2 && shift 2 ;;
	--out | -out) out=$2 && shift 2 ;;
	--trace | -trace)
		# "--trace 0|1", or bare "-trace" for a traced pass.
		if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
			trace=$2 && shift 2
		else
			trace=1 && shift
		fi
		;;
	*) echo "run.sh: unknown argument $1" >&2 && exit 2 ;;
	esac
done
windows=$((seconds * per_second))

build=.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$PWD/$build/gocache" GOTMPDIR="$PWD/$build/tmp" GOTOOLCHAIN=local
go build -o "$build/sonuma-benchmark" ./benchmark

run() {
	"$build/sonuma-benchmark" -workload "$1" -seed "$seed" -windows "$windows" -window 250ms \
		-trace "$trace" -out "$out"
}
if [ -n "$workload" ]; then
	run "$workload"
else
	for w in "${workloads[@]}"; do
		run "$w"
	done
fi
