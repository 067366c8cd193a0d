#!/usr/bin/env bash
# Builds the benchmark and fabp-serve from source into .bench_build/ and
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload db_scan --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -seed 1                  # every workload
#   bash bench/run.sh -compare A/ B/           # two directories of reports
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod || ! -d cmd/fabp-serve ]]; then
	echo "bench/run.sh: run from the root of a fabp checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off

go build -o "$out/fabp-serve" ./cmd/fabp-serve
(cd bench && go build -o "$out/fabp-benchmark" .)
exec "$out/fabp-benchmark" -serve-bin "$out/fabp-serve" -work-dir "$out" "$@"
