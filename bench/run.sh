#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write (Go build cache, temp files, job state dirs, traces, the binary)
# stays under .bench_build in the current directory, so a run touches nothing
# outside its checkout. Arguments are passed to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$out/gevo-benchmark" .
exec "$out/gevo-benchmark" "$@"
