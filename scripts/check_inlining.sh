#!/usr/bin/env bash
# Inlining check for the threaded backend's memory micro-ops. loadU/storeU
# (internal/gpu/uop.go) were split out of the driver so that the
# encoding/binary byte accessors inline to single moves; if the split stops
# having that effect — one of them grows "big" to the inliner, or an accessor
# moves back into runWarpU — every test still passes and every load and store
# is a function call per lane again. This fails instead.
#
# Usage: scripts/check_inlining.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
mkdir -p "$WORK"
die() { echo "check_inlining: FAIL: $*"; exit 1; }

report="$(go build -gcflags=-m ./internal/gpu 2>&1)" || die "build failed"
for fn in Uint64 Uint32 PutUint64 PutUint32; do
  grep -q "uop.go:.*inlining call to binary.littleEndian.$fn" <<<"$report" ||
    die "binary.LittleEndian.$fn is no longer inlined into the memory micro-ops"
done

go test -c -o "$WORK/gpu.test" ./internal/gpu
calls="$(go tool objdump -s 'blockCtx\)\.(runWarpU|loadU|storeU)$' "$WORK/gpu.test" | grep -c 'CALL encoding/binary' || true)"
[ "$calls" -eq 0 ] || die "$calls out-of-line encoding/binary calls in runWarpU/loadU/storeU"
lines="$(go tool objdump -s 'blockCtx\)\.(loadU|storeU)$' "$WORK/gpu.test" | wc -l)"
[ "$lines" -gt 100 ] || die "objdump found no loadU/storeU to inspect"
echo "check_inlining: ok (byte accessors inlined, no CALL encoding/binary in the driver or the memory micro-ops)"
