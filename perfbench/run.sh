#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing every
# argument through (see README.md). Run it from the checkout root:
#   bash perfbench/run.sh --workload mab --seed 1 --seconds 10 --trace 0
# The Go build cache and the binary stay under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
