#!/usr/bin/env bash
# Shape check for the threaded backend's three pieces (internal/gpu/uop.go):
# the driver runWarpU, the lane arithmetic aluU/cmpMaskU, and the memory
# micro-ops loadU/storeU. They are separate functions so that the Go compiler
# keeps the driver small (a function it counts as "big" gets only trivial
# callees inlined and one register allocation over every case) and so that
# every per-lane helper inlines to straight code. If that stops being true —
# the driver grows big again, a byte accessor moves back into it, a lane loop
# starts calling out per lane, the per-branch transferT gains a call besides
# its cold non-termination witness — every test still passes and the simulator
# is just slower. This fails instead.
#
# Usage: scripts/check_inlining.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
die() { echo "check_inlining: FAIL: $*"; exit 1; }

# 1. The byte accessors inline into the memory micro-ops, and the driver's
#    inline cost stays well under "big" (13 742 as one function, ~1 300 split).
report="$(go build -gcflags=-m=2 ./internal/gpu 2>&1)" || die "build failed"
for fn in Uint64 Uint32 PutUint64 PutUint32; do
  grep -q "uop.go:.*inlining call to binary.littleEndian.$fn" <<<"$report" ||
    die "binary.LittleEndian.$fn is no longer inlined into the memory micro-ops"
done
cost="$(sed -n 's/.*cannot inline (\*blockCtx)\.runWarpU: function too complex: cost \([0-9]*\) .*/\1/p' <<<"$report")"
[ -n "$cost" ] || die "-gcflags=-m=2 no longer reports runWarpU's inline cost"
[ "$cost" -le 5000 ] || die "runWarpU's inline cost is $cost (limit 5000): lane arithmetic belongs in aluU, memory in loadU/storeU"

# 2. No function of the hot path calls out, except to what is listed here.
go test -c -o "$WORK/gpu.test" ./internal/gpu
# check <name> <symbol regexp> <allowed targets regexp> fails on a CALL in the
# function to anything but bounds-check panics, stack growth and the allowed.
check() {
  local dump bad
  dump="$(go tool objdump -s "$2" "$WORK/gpu.test")"
  [ "$(wc -l <<<"$dump")" -gt 50 ] || die "objdump found no $1 to inspect"
  bad="$(grep -o 'CALL [^[:space:]]*' <<<"$dump" | sed 's/^CALL //' | sort -u |
    grep -Ev '^runtime\.(panic[A-Za-z0-9]*|morestack[A-Za-z0-9_.]*)\(SB\)$' | grep -Ev "$3" || true)"
  [ -z "$bad" ] || die "$1 calls out: $(tr '\n' ' ' <<<"$bad")"
}
# The lane loops: memmove is uSextTo64's full-warp copy, math.archMin/archMax
# the kernels math.Min/math.Max inline down to.
lane='^(runtime\.memmove|math\.arch(Min|Max)[A-Za-z0-9_.]*)\(SB\)$'
check aluU 'gevo/internal/gpu\.aluU$' "$lane"
check cmpMaskU 'gevo/internal/gpu\.cmpMaskU$' "$lane"
# What building a FaultError, ExecError or TimeoutError on the way out costs:
# off the per-lane path, so allowed in the functions that can fail.
exits='runtime\.(newobject|concatstring2|gcWriteBarrier[0-9]*)\(SB\)'
# The memory micro-ops: shapeOf and the cost helpers, once per warp — and
# nothing from encoding/binary.
check loadU 'blockCtx\)\.loadU$' "^(gevo/internal/gpu\.[A-Za-z(*).]*\(SB\)|$exits)\$"
check storeU 'blockCtx\)\.storeU$' "^(gevo/internal/gpu\.[A-Za-z(*).]*\(SB\)|$exits)\$"
# The driver: its own pieces, the reference interpreter for an escape, the
# profile's recorders (once per straight-line run and per conditional branch,
# and only when a launch is profiled), and the run-time lane-invariance check
# (a call through a register, nil outside tests).
check runWarpU 'blockCtx\)\.runWarpU$' \
  "^(gevo/internal/gpu\.(\(\*blockCtx\)\.(loadU|storeU|transferT|divergeT|execInstr|profileRun|profileBranch)|aluU|cmpMaskU)\(SB\)|[A-Z][A-Z0-9]*|$exits)\$"
# The per-branch path: the phi-edge closure (a call through a register) and,
# from the 2^14th retreat of a warp on, the cold half of the non-termination
# witness — which may copy and compare as it likes, and is the only one.
check transferT 'blockCtx\)\.transferT$' '^(gevo/internal/gpu\.\(\*blockCtx\)\.witnessT\(SB\)|[A-Z][A-Z0-9]*)$'
echo "check_inlining: ok (runWarpU inline cost $cost; byte accessors inlined; no per-lane calls in aluU, cmpMaskU, loadU, storeU, the driver or transferT)"
