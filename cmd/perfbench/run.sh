#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash cmd/perfbench/run.sh --workload host-steady --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact and cache lives under
# .bench_build/ in that root, so the run writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/cmd/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
