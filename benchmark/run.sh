#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given flags,
# from the root of a checkout. Everything the build writes stays inside the
# checkout: cache, temporary files, the toolchain's own configuration and
# counters, and the binary go under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/bmacbench" .
exec "$build/bmacbench" "$@"
