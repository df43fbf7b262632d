#!/usr/bin/env bash
# Builds the benchmark and the cmd/apptracker binary from the checkout in
# the current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload announce --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and span file stays under .bench_build/ in
# the checkout. Without the repository's go.mod next to perfbench/ the
# first build fails and the script exits non-zero without a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/apptracker" ./cmd/apptracker
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -apptracker "$out/apptracker" -out "$out" "$@"
