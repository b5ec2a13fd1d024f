#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload aes --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the toolchain's configuration and
# telemetry directory, and the binary all stay under .bench_build/ in the
# checkout; the first build compiles the standard library into that cache
# and takes longer than later ones.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
