#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags, from the root of the checkout:
#
#   bash bench/run.sh --workload replay-host --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache, temp
# files, charond cache directories, profiles) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/charon-bench" .)
exec "$out/charon-bench" "$@"
