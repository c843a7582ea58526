#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is started from (the
# repository root) and runs it with the given arguments. Everything the
# build leaves behind goes under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$(dirname "$0")" -o "$build/hinfs-benchmark" .
exec "$build/hinfs-benchmark" "$@"
