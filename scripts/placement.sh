#!/usr/bin/env bash
# Where the linker put the simulator's hot functions: the address of each,
# and its offset within a 64-byte cache line. A loop that straddles two lines
# runs measurably slower than the same bytes inside one, so a change that
# only shifts code laid out before package gpu (package obs is linked just
# before it) can move search_adept and sim_paper times by ±10 %. Compare this
# output for the two binaries of a comparison before reading a time delta:
# an offset that changed parity (32 vs 0 mod 64 for shapeOf) means the
# difference may be placement, not code.
#
# Usage: scripts/placement.sh [binary]
#   binary defaults to .bench_build/gevo-benchmark, which bench/run.sh builds
#   in the current directory.
set -euo pipefail

bin="${1:-.bench_build/gevo-benchmark}"
[ -f "$bin" ] || { echo "placement: no binary at $bin (bash bench/run.sh builds it)" >&2; exit 2; }
syms="$(go tool nm "$bin")"
status=0
for fn in shapeOf '(*blockCtx).runWarpU' '(*blockCtx).transferT' aluU cmpMaskU '(*blockCtx).loadU' '(*blockCtx).storeU'; do
  addr="$(awk -v s="gevo/internal/gpu.$fn" '$2 == "T" && $3 == s { print $1 }' <<<"$syms")"
  if [ -z "$addr" ]; then
    echo "placement: gpu.$fn not found in $bin" >&2
    status=1
    continue
  fi
  printf '%-26s 0x%-8s %2d mod 64\n' "gpu.$fn" "$addr" $((16#$addr % 64))
done
exit "$status"
