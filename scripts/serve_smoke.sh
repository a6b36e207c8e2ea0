#!/usr/bin/env bash
# Serve smoke test: start gevo-serve, submit three jobs (two SIMCoV, one
# generated synth scenario), kill -9 the server mid-run, restart it on the
# same state directory, and assert every job resumes and finishes with
# results byte-identical to an uninterrupted run of the same specs (the
# crash-resume invariant, across real processes). The reference run also
# scrapes /metrics and fails on missing or malformed Prometheus series,
# fails if the /debug/trace span slices lack their end attributes, and
# fails if resubmitting a finished spec writes the ledger.
#
# Usage: scripts/serve_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
ADDR=127.0.0.1:8791
BASE="http://$ADDR"
SEEDS=(5 6 9)
WLS=(simcov simcov "synth:stencil2d:seed=8:n=256")
# 400 generations: the kill must land mid-flight, and on a 2-vCPU host these
# jobs advance ~70 generations in the time the script takes to see all three
# start (20 finished before the kill; the whole smoke takes ~30 s).
SUBMIT_ARGS=(-demes 2 -pop 4 -gens 400 -interval 2 -k 1)

say() { echo "serve_smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

mkdir -p "$WORK/bin"
go build -o "$WORK/bin" ./cmd/gevo-serve ./cmd/gevo-submit

SERVER_PID=""
cleanup() { [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true; }
trap cleanup EXIT

start_server() { # $1 = state dir
  "$WORK/bin/gevo-serve" -addr "$ADDR" -dir "$1" &
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

submit_job() { # $1 = seed, $2 = workload → job id on stdout
  "$WORK/bin/gevo-submit" -server "$BASE" -workload "$2" "${SUBMIT_ARGS[@]}" -seed "$1" | field id
}

job_state() { "$WORK/bin/gevo-submit" -server "$BASE" -status "$1" | field state; }
job_gen() { "$WORK/bin/gevo-submit" -server "$BASE" -status "$1" | field gen; }

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

# check_metrics scrapes /metrics from the running server and validates the
# exposition: every required series present, every sample line well-formed
# Prometheus text format (regex only — no scrape library).
check_metrics() {
  local scrape="$WORK/metrics.txt"
  curl -sf "$BASE/metrics" > "$scrape" || die "GET /metrics failed"
  for series in \
    gevo_pool_evals_completed_total \
    gevo_pool_workers \
    'gevo_serve_jobs{state="done"}' \
    gevo_serve_slices_total \
    gevo_serve_submits_total \
    gevo_gpu_program_cache_hits_total \
    'gevo_serve_ledger_write_seconds_bucket{le="+Inf"}' \
    'gevo_gpu_compile_seconds_bucket{le="+Inf"}' \
    gevo_trace_events_total \
    'gevo_http_request_seconds_bucket{route="POST /jobs",le="+Inf"}' \
    'gevo_http_request_seconds_bucket{route="GET /jobs/{id}",le="+Inf"}' \
    'gevo_http_responses_total{route="POST /jobs",code="202"}' \
    gevo_http_in_flight; do
    grep -qF "$series" "$scrape" || die "/metrics missing series $series"
  done
  # Per-job totals live at /jobs/{id}/costs only; /metrics stays the same
  # size however many jobs the server has run.
  if grep -F 'job="' "$scrape"; then
    die "/metrics carries per-job series"
  fi
  # Exposition-format 0.0.4 metadata: every metric family is announced with
  # # HELP and # TYPE lines, and the declared types are ones Prometheus
  # accepts.
  grep -q '^# HELP gevo_' "$scrape" || die "/metrics has no # HELP lines"
  grep -q '^# TYPE gevo_' "$scrape" || die "/metrics has no # TYPE lines"
  grep -q '^# TYPE gevo_pool_evals_completed_total counter$' "$scrape" \
    || die "/metrics missing counter TYPE for gevo_pool_evals_completed_total"
  grep -q '^# TYPE gevo_serve_jobs gauge$' "$scrape" \
    || die "/metrics missing gauge TYPE for gevo_serve_jobs"
  grep -q '^# TYPE gevo_serve_ledger_write_seconds histogram$' "$scrape" \
    || die "/metrics missing histogram TYPE for gevo_serve_ledger_write_seconds"
  if grep '^# TYPE ' "$scrape" | grep -vE '^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)$' | grep -q .; then
    die "/metrics has malformed # TYPE lines"
  fi
  grep -qE '^gevo_build_info\{version="[^"]*",go="go[^"]*"\} 1$' "$scrape" \
    || die "/metrics missing gevo_build_info gauge"
  # Each non-comment line: name[{labels}] value. Label values are quoted
  # strings with escapes and may themselves contain '}' (route patterns
  # like "GET /jobs/{id}"), so the label matcher walks quoted values
  # rather than scanning to the first closing brace.
  local sample='^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$'
  if grep -vE '^(#.*)?$' "$scrape" | grep -vE "$sample" | grep -q .; then
    grep -vE '^(#.*)?$' "$scrape" | grep -vE "$sample" || true
    die "/metrics has malformed exposition lines"
  fi
  say "metrics OK: $(grep -cvE '^(#.*)?$' "$scrape") well-formed series samples"
}

# check_traceparent sends a W3C traceparent with a request and asserts the
# response continues the same trace ID (new span position, same trace).
check_traceparent() {
  local trace="4bf92f3577b34da6a3ce929d0e0e4736"
  local hdr
  hdr="$(curl -sf -D - -o /dev/null \
    -H "traceparent: 00-$trace-00f067aa0ba902b7-01" "$BASE/healthz" \
    | tr -d '\r' | grep -i '^traceparent:' | awk '{print $2}')"
  case "$hdr" in
    00-"$trace"-????????????????-0?) say "traceparent round-trip OK: $hdr" ;;
    *) die "response traceparent '${hdr:-<none>}' does not continue trace $trace" ;;
  esac
}

# check_trace fetches the Chrome trace export and asserts span slices carry
# the attributes their spans ended with: a gpu.compile slice its verify_us,
# an http slice its response code.
check_trace() {
  curl -sf "$BASE/debug/trace" > "$WORK/trace.json" || die "GET /debug/trace failed"
  python3 - "$WORK/trace.json" <<'EOF' || die "/debug/trace span slices lack their end attributes"
import json, sys
evs = json.load(open(sys.argv[1]))
def has(name, key):
    return any(e.get("ph") == "X" and e.get("name") == name and key in e.get("args", {}) for e in evs)
missing = [f"{n} slice with {k}" for n, k in (("gpu.compile", "verify_us"), ("http", "code")) if not has(n, k)]
if missing:
    sys.exit("serve_smoke: no " + ", no ".join(missing))
EOF
  say "trace OK: gpu.compile slices carry verify_us, http slices carry code"
}

check_costs() { # $1 = job id
  local evals
  evals="$(curl -sf "$BASE/jobs/$1/costs" | field evals)" || die "GET /jobs/$1/costs failed"
  [ "$evals" -gt 0 ] || die "job $1 costs report evals=$evals"
  say "costs OK: job $1 charged $evals evals"
}

ledger_writes() { curl -sf "$BASE/metrics" | awk '$1 == "gevo_serve_ledger_writes_total" { print $2 }'; }

# check_resubmit_writes_nothing resubmits a finished spec ten times and fails
# if the ledger was written: the job's record answers, and a read never
# writes. The count is taken once the ledger on disk holds every job as done,
# so no terminal write is still in flight.
check_resubmit_writes_nothing() { # $1 = state dir
  local before after
  for _ in $(seq 1 100); do
    python3 - "$1/ledger.json" <<'EOF' && break
import json, sys
jobs = json.load(open(sys.argv[1]))["jobs"]
sys.exit(0 if jobs and all(j["state"] == "done" for j in jobs) else 1)
EOF
    sleep 0.1
  done
  before="$(ledger_writes)"
  for _ in $(seq 1 10); do submit_job "${SEEDS[0]}" "${WLS[0]}" >/dev/null; done
  sleep 1 # the persister writes asynchronously; give a stray write time to land
  after="$(ledger_writes)"
  [ -n "$before" ] && [ "$before" = "$after" ] \
    || die "10 resubmits of a finished spec moved gevo_serve_ledger_writes_total from '$before' to '$after'"
  say "resubmits OK: ledger writes stayed at $before"
}

run_uninterrupted() { # $1 = state dir, $2 = result prefix
  start_server "$1"
  local ids=()
  for i in "${!SEEDS[@]}"; do ids+=("$(submit_job "${SEEDS[$i]}" "${WLS[$i]}")"); done
  for i in "${!ids[@]}"; do
    wait_done "${ids[$i]}"
    "$WORK/bin/gevo-submit" -server "$BASE" -result "${ids[$i]}" > "$2.$i.json"
  done
  check_costs "${ids[0]}"
  check_metrics
  check_trace
  check_traceparent
  check_resubmit_writes_nothing "$1"
  stop_server_hard
}

say "phase 1: uninterrupted reference run"
run_uninterrupted "$WORK/state-ref" "$WORK/ref"

say "phase 2: run with kill -9 mid-flight"
start_server "$WORK/state-crash"
IDS=()
for i in "${!SEEDS[@]}"; do IDS+=("$(submit_job "${SEEDS[$i]}" "${WLS[$i]}")"); done
for id in "${IDS[@]}"; do
  for _ in $(seq 1 300); do
    gen="$(job_gen "$id")"
    [ "$gen" -gt 0 ] && break
    sleep 0.1
  done
  [ "$gen" -gt 0 ] || die "job $id made no progress before kill"
done
for id in "${IDS[@]}"; do
  st="$(job_state "$id")"
  [ "$st" = running ] || [ "$st" = queued ] || die "job $id already $st before kill"
done
say "killing server (kill -9) with jobs at gens: $(job_gen "${IDS[0]}"), $(job_gen "${IDS[1]}"), $(job_gen "${IDS[2]}")"
stop_server_hard

say "phase 3: restart and resume"
start_server "$WORK/state-crash"
for i in "${!IDS[@]}"; do
  wait_done "${IDS[$i]}"
  "$WORK/bin/gevo-submit" -server "$BASE" -result "${IDS[$i]}" > "$WORK/resumed.$i.json"
done
stop_server_hard

say "phase 4: golden comparison"
# The served result carries a serve-time costs block (CPU time, slice
# counts) that is process-local by design: a resumed run legitimately
# spends different CPU than an uninterrupted one. Assert the block is
# present, then strip it so the diff compares only the deterministic
# search outcome.
strip_costs() { # $1 = result json → $1.stripped
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
if "costs" not in doc:
    sys.exit(path + ": served result is missing the costs block")
del doc["costs"]
with open(path + ".stripped", "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
EOF
}
for i in "${!IDS[@]}"; do
  strip_costs "$WORK/ref.$i.json"
  strip_costs "$WORK/resumed.$i.json"
  diff -u "$WORK/ref.$i.json.stripped" "$WORK/resumed.$i.json.stripped" \
    || die "job $i: resumed result differs from uninterrupted run"
done
say "PASS: all jobs resumed after kill -9 with bit-identical results"
