#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout, then runs it:
#
#   bash perfbench/run.sh --workload serve_objects --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout. The build fails (and so the script exits non-zero
# before printing a result) when the fairassign sources are not beside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" "$@"
