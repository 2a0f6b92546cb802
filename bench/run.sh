#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from this checkout's source,
# then runs the benchmark. Everything written lands under .bench_build/ in
# the checkout: the Go build cache, the two binaries and the WAL temp dirs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
build_start=$(date +%s%N)
(cd "$here" && go build -o "$out/bin/" . github.com/extendedtx/activityservice/cmd/activityd)
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
cd "$root"
exec "$out/bin/bench" -bin "$out/bin" -tmp "$out/tmp" -build-ms "$build_ms" "$@"
