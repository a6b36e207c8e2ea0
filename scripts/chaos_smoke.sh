#!/usr/bin/env bash
# Chaos smoke test: the fault-injection gauntlet across real processes.
# Phase 1 runs three jobs on a clean server for reference results. Phase 2
# reruns the same specs on a server with a deterministic fault schedule
# armed (eval panics, dispatch errors, persistence failures, HTTP 503s)
# and admission control at two active jobs — the third submission sheds
# with 429 until capacity frees, and gevo-submit's retry loop rides
# through the injected 503s. Mid-run the server is kill -9'd and restarted
# with the same fault schedule re-armed. Every job must still finish with
# results byte-identical to the fault-free reference, and the fault
# metrics must account for the injections.
#
# Usage: scripts/chaos_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
ADDR=127.0.0.1:8792
BASE="http://$ADDR"
SEEDS=(5 6 9)
WLS=(simcov simcov "synth:stencil2d:seed=8:n=256")
RETRY_ARGS=(-retries 3 -retry-max-wait 1s)
# 400 generations, as in serve_smoke.sh: the third submission must meet two
# running jobs, and the kill must land mid-flight.
SUBMIT_ARGS=(-demes 2 -pop 4 -gens 400 -interval 2 -k 1 "${RETRY_ARGS[@]}")
FAULTS='eval.dispatch:panic@3,9,15;eval.dispatch:error@6;persist.write:error@2;persist.sync:error@4;http.request:error@2,5'

say() { echo "chaos_smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

mkdir -p "$WORK/bin"
go build -o "$WORK/bin" ./cmd/gevo-serve ./cmd/gevo-submit

SERVER_PID=""
cleanup() { [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT

start_server() { # $1 = state dir, rest = extra gevo-serve flags
  local dir="$1"; shift
  "$WORK/bin/gevo-serve" -addr "$ADDR" -dir "$dir" "$@" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || die "server died during startup"
    sleep 0.1
  done
  die "server did not become healthy"
}

stop_server_hard() {
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

field() { # $1 = json on stdin field name
  python3 -c "import json,sys; print(json.load(sys.stdin)['$1'])"
}

# submit_admitted retries the whole submission until admission control lets
# it through (gevo-submit's own -retries already absorbs transient 503/429
# bursts; this outer loop covers the window while the server is at
# max-jobs for longer than one client retry budget).
submit_admitted() { # $1 = seed, $2 = workload → job id on stdout
  local out
  for _ in $(seq 1 180); do
    if out=$("$WORK/bin/gevo-submit" -server "$BASE" -workload "$2" "${SUBMIT_ARGS[@]}" -seed "$1" 2>/dev/null); then
      echo "$out" | field id
      return 0
    fi
    sleep 1
  done
  die "submission (seed $1) never admitted"
}

job_state() { "$WORK/bin/gevo-submit" -server "$BASE" "${RETRY_ARGS[@]}" -status "$1" | field state; }
job_gen() { "$WORK/bin/gevo-submit" -server "$BASE" "${RETRY_ARGS[@]}" -status "$1" | field gen; }

wait_done() { # $1 = job id
  for _ in $(seq 1 600); do
    case "$(job_state "$1")" in
      done) return 0 ;;
      failed|cancelled) die "job $1 ended $(job_state "$1")" ;;
    esac
    sleep 0.5
  done
  die "job $1 did not finish"
}

say "phase 1: fault-free reference run"
start_server "$WORK/state-ref"
REF_IDS=()
for i in "${!SEEDS[@]}"; do REF_IDS+=("$(submit_admitted "${SEEDS[$i]}" "${WLS[$i]}")"); done
for i in "${!REF_IDS[@]}"; do
  wait_done "${REF_IDS[$i]}"
  "$WORK/bin/gevo-submit" -server "$BASE" -result "${REF_IDS[$i]}" > "$WORK/ref.$i.json"
done
stop_server_hard

say "phase 2: chaos run — faults armed, admission capped, then kill -9"
start_server "$WORK/state-chaos" -faults "$FAULTS" -max-jobs 2
IDS=()
for i in "${!SEEDS[@]}"; do IDS+=("$(submit_admitted "${SEEDS[$i]}" "${WLS[$i]}")"); done
[ "${IDS[*]}" = "${REF_IDS[*]}" ] || die "content-addressed job ids diverged between runs"
# Shedding is observable: with three jobs behind -max-jobs 2, the third
# admission had to wait for capacity, counting at least one shed.
curl -sf "$BASE/metrics" | grep -E '^gevo_serve_shed_total [1-9]' >/dev/null \
  || die "admission control shed nothing despite -max-jobs 2"
for id in "${IDS[@]}"; do
  for _ in $(seq 1 300); do
    gen="$(job_gen "$id")"
    [ "$gen" -gt 0 ] && break
    sleep 0.1
  done
  [ "$gen" -gt 0 ] || die "job $id made no progress before kill"
done
say "killing server (kill -9) with jobs at gens: $(job_gen "${IDS[0]}"), $(job_gen "${IDS[1]}"), $(job_gen "${IDS[2]}")"
stop_server_hard

say "phase 3: restart with the same fault schedule re-armed, resume"
start_server "$WORK/state-chaos" -faults "$FAULTS" -max-jobs 2
for i in "${!IDS[@]}"; do
  wait_done "${IDS[$i]}"
  "$WORK/bin/gevo-submit" -server "$BASE" -result "${IDS[$i]}" > "$WORK/chaos.$i.json"
done

say "phase 4: fault accounting"
SCRAPE="$WORK/metrics.txt"
curl -sf "$BASE/metrics" > "$SCRAPE" || die "GET /metrics failed"
grep -qF 'gevo_fault_injected_total{site="eval.dispatch",kind="panic"}' "$SCRAPE" \
  || die "/metrics missing injected-fault series"
fired=$(awk '/^gevo_fault_injected_total/ { s += $2 } END { print s+0 }' "$SCRAPE")
[ "$fired" -ge 1 ] || die "fault schedule re-armed but nothing fired after restart"
status=$(curl -sf "$BASE/healthz" | field status)
[ "$status" = ok ] || die "health is $status after the gauntlet, want ok"
say "fault accounting OK: $fired injections fired since restart, health ok"
stop_server_hard

say "phase 5: golden comparison against the fault-free reference"
# The costs block (trace ID, CPU time, counts) is process-local by design;
# compare the rest.
strip_costs() { # $1 = result json → $1.stripped
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); d.pop("costs"); json.dump(d, open(sys.argv[1] + ".stripped", "w"), indent=1, sort_keys=True)' "$1"
}
for i in "${!IDS[@]}"; do
  strip_costs "$WORK/ref.$i.json"
  strip_costs "$WORK/chaos.$i.json"
  diff -u "$WORK/ref.$i.json.stripped" "$WORK/chaos.$i.json.stripped" \
    || die "job $i: chaos-run result differs from fault-free run"
done
say "PASS: faults injected, shed, killed -9 and resumed — results bit-identical"
