#!/usr/bin/env bash
# Builds cmd/windowd and the benchmark from source, then runs the
# benchmark with the given arguments, from the root of a checkout:
#
#	bash perfbench/run.sh --workload overload --seed 1 --seconds 20 --trace 0
#
# Build caches, temporaries and binaries stay under .bench_build/ in the
# checkout.  Outside a checkout (no go.mod next to perfbench/) the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/windowd" ./cmd/windowd >&2
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -windowd "$out/windowd" "$@"
