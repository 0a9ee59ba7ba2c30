#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. The build fails, and the script exits
# non-zero, when the repository's sources are not next to bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/bench"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/bench" .
)
cd "$root"
exec "$out/bench" "$@"
