#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Every file it builds, caches or writes
# stays under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off
# Build under a private name and rename, so runs that start together
# never execute a half-written binary.
(cd "$root/perfbench" && go build -o "$build/perfbench.$$" .)
mv -f "$build/perfbench.$$" "$build/perfbench"
exec "$build/perfbench" "$@"
