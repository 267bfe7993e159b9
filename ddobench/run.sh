#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it:
#
#   bash ddobench/run.sh --workload fleet-100k --seed 7 --seconds 25 --trace 0
#
# Everything the build and the run write (binary, Go build cache, digest
# store, result files) goes under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build/ddobench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C ddobench build -o "$out/ddobench" .
exec "$out/ddobench" "$@"
