#!/usr/bin/env bash
# Builds the phase benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the checkout's root:
#
#   bash phasebench/run.sh --workload setevec --seed 1 --seconds 30 --trace 0
#
# The build cache and the binary stay inside the checkout, in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/phasebench" && go build -o "$out/phasebench" .)
exec "$out/phasebench" "$@"
