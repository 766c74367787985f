#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload inmem-hybrid-1m --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

go -C "$root/perfbench" build -o "$build/perfbench" . 1>&2
exec "$build/perfbench" --out "$build/out" "$@"
