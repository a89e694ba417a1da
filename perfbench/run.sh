#!/usr/bin/env bash
# Builds the benchmark and cmd/lbd from this checkout and runs one
# workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload http-probe --seed 1 --seconds 10 --trace 0
#
# Every build artefact and cache stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off CGO_ENABLED=0

# The benchmark module replaces finitelb with the checkout itself, so a
# directory holding only the benchmark fails here, without a result.
go build -o "$build/bin/lbd" ./cmd/lbd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --lbd "$build/bin/lbd" --spans "$build/spans" "$@"
