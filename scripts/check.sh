#!/usr/bin/env bash
# Full verification: build + tests + a deterministic curve-work gate on
# the flat and hierarchical analyses + the perf benchmark (which also
# cross-checks incremental vs full engine outcomes and refreshes
# BENCH_1.json), plus an observability smoke test, a guard on the
# no-sink instrumentation overhead, a kernel no-regression gate vs the
# committed BENCH_1.json, the propagation tightness table (BENCH_9.json,
# with an optimal-dominance gate and a plumbing-overhead guard), the
# hybrid backend table (BENCH_10.json, with pure-agreement/DES-dominance
# gates and a pay-for-use guard on the pure-CPA path), the
# kernel timing + pool scaling benchmark (BENCH_6.json), the exploration checks (jobs-determinism byte diff +
# BENCH_3.json scaling sanity), the self-verification smoke
# (sanitizer + differential oracles on the paper system and a fixed-seed
# fuzz batch), and a serve-daemon smoke (warm session round over a Unix
# socket + clean SIGTERM drain).
set -euo pipefail
cd "$(dirname "$0")/.."
# Hard wall-clock ceiling: a hung fixed point or deadlocked pool must
# fail the check, not stall it (tune with CHECK_TIMEOUT_S).
timeout "${CHECK_TIMEOUT_S:-900}" dune build @runtest

# --- deterministic work gate ------------------------------------------
# Curve work is counted, not timed, so this gate is exact on any host.
# The flat (SEM-baseline) and hierarchical analyses of the default
# system and of avionics must not make more closure evaluations (memo
# misses: closure calls and table cells filled) or memo hits (closure
# and table reads) than recorded when the derived streams moved onto
# packed table curves.  Lower a budget when a change cuts the work;
# never raise one to pass.
# work_gate LABEL MODE MAX_CLOSURE_EVALS MAX_MEMO_HITS [ANALYSE ARGS...]
work_gate() {
  local label=$1 mode=$2 max_evals=$3 max_hits=$4 work
  shift 4
  work=$(dune exec bin/hem_tool.exe -- analyse --mode "$mode" --stats "$@" \
    | awk '/curve closure evals/ { print $4, $7 + 0 }')
  if ! awk -v label="$label" -v mode="$mode" -v work="$work" \
      -v max_evals="$max_evals" -v max_hits="$max_hits" 'BEGIN {
    split(work, w, " ");
    printf "check: %s %s closure evals %d (budget %d), memo hits %d (budget %d)\n",
      label, mode, w[1], max_evals, w[2], max_hits;
    exit !(w[1] != "" && w[1] <= max_evals && w[2] <= max_hits)
  }'; then
    echo "check: $label $mode analysis exceeds its curve work budget" >&2
    exit 1
  fi
}
work_gate "paper system" flat 766 272
work_gate avionics flat 866 413 --file examples/specs/avionics.scm
work_gate "paper system" hem 11 40
work_gate avionics hem 105 220 --file examples/specs/avionics.scm

# ratio_guard LABEL REF OLD NEW TOL_PCT FAILURE: print the timing
# comparison and fail the check with FAILURE unless
# NEW <= OLD * (1 + TOL_PCT / 100).
ratio_guard() {
  if ! awk -v label="$1" -v ref="$2" -v old="$3" -v new="$4" -v tol="$5" 'BEGIN {
    limit = old * (1 + tol / 100.0);
    printf "check: %s %.3f ms vs %s %.3f ms (limit %.3f ms)\n",
      label, new, ref, old, limit;
    exit !(new <= limit)
  }'; then
    echo "$6" >&2
    exit 1
  fi
}

# full_ms FILE ARRAY CASE: full_ms of the named case in a BENCH file
full_ms() {
  jq --arg n "$3" "[.$2[] | select(.name == \$n)][0].full_ms" "$1"
}

# --- trace smoke test -------------------------------------------------
# An analyse run with --trace must produce a valid Chrome trace with
# balanced span begin/end events and one span per global iteration.
trace=$(mktemp /tmp/hem_trace.XXXXXX.json)
dune exec bin/hem_tool.exe -- analyse --trace "$trace" > /dev/null
jq -e '.traceEvents | length > 0' "$trace" > /dev/null
b=$(jq '[.traceEvents[] | select(.ph=="B")] | length' "$trace")
e=$(jq '[.traceEvents[] | select(.ph=="E")] | length' "$trace")
iters=$(jq '[.traceEvents[] | select(.ph=="B" and .name=="engine.iteration")] | length' "$trace")
if [ "$b" != "$e" ]; then
  echo "check: unbalanced trace spans ($b begin, $e end)" >&2
  exit 1
fi
if [ "$iters" -lt 1 ]; then
  echo "check: no engine.iteration span in trace" >&2
  exit 1
fi
rm -f "$trace"
echo "check: trace smoke test ok ($b spans, $iters iteration spans)"

# --- metrics snapshot smoke test --------------------------------------
# analyse --metrics must emit a JSON snapshot with the counter/gauge/
# histogram sections and populated iteration-latency percentiles.
metrics=$(mktemp /tmp/hem_metrics.XXXXXX.json)
dune exec bin/hem_tool.exe -- analyse --metrics "$metrics" > /dev/null
jq -e 'has("counters") and has("gauges") and has("histograms")' "$metrics" > /dev/null \
  || { echo "check: metrics snapshot missing top-level sections" >&2; exit 1; }
jq -e '.histograms["engine.iteration_ns"] | .count >= 1 and .p50 > 0 and .p99 >= .p50 and .max >= .p99' "$metrics" > /dev/null \
  || { echo "check: engine.iteration_ns histogram missing or inconsistent" >&2; exit 1; }
jq -e '.counters["busy_window.windows"] >= 1' "$metrics" > /dev/null \
  || { echo "check: busy_window.windows counter missing from snapshot" >&2; exit 1; }
rm -f "$metrics"
echo "check: metrics snapshot smoke ok"

# --- profiler smoke test ----------------------------------------------
# hem_tool profile must produce a collapsed-stack file with integer
# self-times whose leaves are rooted in the synthetic "analysis" span.
flame=$(mktemp /tmp/hem_flame.XXXXXX.txt)
dune exec bin/hem_tool.exe -- profile examples/paper.spec --flame "$flame" > /dev/null
if ! [ -s "$flame" ]; then
  echo "check: profile wrote an empty flamegraph file" >&2
  exit 1
fi
if grep -qvE '^.+ [0-9]+$' "$flame"; then
  echo "check: malformed collapsed-stack line in $flame" >&2
  grep -vE '^.+ [0-9]+$' "$flame" >&2
  exit 1
fi
if ! grep -q '^analysis' "$flame"; then
  echo "check: no analysis-rooted stack in flamegraph output" >&2
  exit 1
fi
rm -f "$flame"
echo "check: profile smoke ok (collapsed stacks well-formed)"

# --- convergence CSV byte-stability -----------------------------------
# The machine-readable convergence format carries analysis data only
# (no timing), so two runs must be byte-identical.
c1=$(mktemp) c2=$(mktemp)
dune exec bin/hem_tool.exe -- convergence --format csv > "$c1"
dune exec bin/hem_tool.exe -- convergence --format csv > "$c2"
if ! cmp -s "$c1" "$c2"; then
  echo "check: convergence --format csv is not byte-stable across runs" >&2
  diff "$c1" "$c2" >&2 || true
  exit 1
fi
rm -f "$c1" "$c2"
echo "check: convergence csv byte-stable"

# --- resilience smoke test --------------------------------------------
# A tiny deadline must degrade gracefully — widened-but-sound bounds,
# exit code 3 — and must never hang; an exhausted verify budget must
# stop with the same code after its completed prefix.
code=0
timeout 30 dune exec bin/hem_tool.exe -- analyse --deadline 0 \
  > /dev/null 2>&1 || code=$?
if [ "$code" != 3 ]; then
  echo "check: analyse --deadline 0 exited $code, expected 3 (degraded)" >&2
  exit 1
fi
code=0
timeout 30 dune exec bin/hem_tool.exe -- verify --budget 1 \
  > /dev/null 2>&1 || code=$?
if [ "$code" != 3 ]; then
  echo "check: verify --budget 1 exited $code, expected 3 (degraded)" >&2
  exit 1
fi
echo "check: resilience smoke ok (deadline and budget degrade with exit 3)"

# --- perf + no-sink overhead guard ------------------------------------
# The perf run rewrites BENCH_1.json; keep the previous numbers and make
# sure the instrumented-but-unsinked hot path has not regressed.  The
# default tolerance absorbs container timing noise — tighten with
# PERF_TOL_PCT=5 on a quiet machine, or skip with PERF_GUARD=0.
baseline=$(mktemp)
cp BENCH_1.json "$baseline"
dune exec bench/main.exe -- perf
if [ "${PERF_GUARD:-1}" = 1 ]; then
  tol="${PERF_TOL_PCT:-25}"
  ratio_guard "no-sink perf" baseline \
    "$(jq '[.cases[].incremental_ms] | add' "$baseline")" \
    "$(jq '[.cases[].incremental_ms] | add' BENCH_1.json)" "$tol" \
    "check: instrumentation overhead exceeds ${tol}% budget"
fi
# --- kernel no-regression gate ----------------------------------------
# The committed BENCH_1.json numbers were produced with the batched
# curve kernels enabled; a fresh perf run must not fall more than
# KERNEL_TOL_PCT behind them on the kernel-heavy cases.  This catches a
# silently disabled or regressed kernel path (tolerance absorbs timing
# noise; skip with KERNEL_GUARD=0 on a very noisy machine).
if [ "${KERNEL_GUARD:-1}" = 1 ]; then
  ktol="${KERNEL_TOL_PCT:-10}"
  for case_name in chain_16 paper_flat_sem; do
    ratio_guard "kernel case $case_name" baseline \
      "$(full_ms "$baseline" cases "$case_name")" \
      "$(full_ms BENCH_1.json cases "$case_name")" "$ktol" \
      "check: kernel case ${case_name} regressed more than ${ktol}% vs committed BENCH_1.json"
  done
fi
rm -f "$baseline"

# --- propagation tightness table (BENCH_9.json) -----------------------
# Refreshes BENCH_9.json.  The bench itself exits non-zero when the
# optimal propagation mode is looser than any single mode anywhere or
# never strictly tighter than the default theta-tau; here we re-assert
# the headline claims from the file, check every mode is accepted on
# the CLI, and — with the fresh BENCH_1.json still on disk from the
# perf run above — require the bench's kernel-path timings to sit
# within PROP_KERNEL_TOL_PCT of the same cases measured by perf (the
# propagation plumbing must not tax the default analysis path; skip
# with PROP_GUARD=0 on a noisy machine).
dune exec bench/main.exe -- propagation
jq -e '.strict_win_systems | length >= 1' BENCH_9.json > /dev/null \
  || { echo "check: optimal never strictly tighter than theta_tau" >&2; exit 1; }
jq -e '[.systems[].optimal_pointwise_le] | all' BENCH_9.json > /dev/null \
  || { echo "check: optimal looser than a single mode somewhere" >&2; exit 1; }
jq -e '[.systems[].elements[] | select(.optimal != null and .theta_tau != null)
        | .optimal <= .theta_tau] | all' BENCH_9.json > /dev/null \
  || { echo "check: per-element optimal vs theta_tau comparison failed" >&2; exit 1; }
for pmode in theta_tau jitter jitter_offset jitter_bmin busy_window optimal; do
  dune exec bin/hem_tool.exe -- analyse --propagation "$pmode" > /dev/null \
    || { echo "check: analyse --propagation $pmode failed" >&2; exit 1; }
done
if [ "${PROP_GUARD:-1}" = 1 ]; then
  ptol="${PROP_KERNEL_TOL_PCT:-10}"
  for case_name in chain_16 paper_flat_sem; do
    ratio_guard "propagation kernel case $case_name" perf \
      "$(full_ms BENCH_1.json cases "$case_name")" \
      "$(full_ms BENCH_9.json kernel "$case_name")" "$ptol" \
      "check: propagation plumbing slows ${case_name} more than ${ptol}% vs perf run"
  done
fi
echo "check: propagation tightness ok (strict wins: $(jq -cr '.strict_win_systems | join(", ")' BENCH_9.json))"

# --- hybrid backend table (BENCH_10.json) -----------------------------
# Refreshes BENCH_10.json.  The bench itself hard-fails when pure-RTC
# and pure-CPA bounds differ on the paper point system or any backend's
# bounds fall below DES observations; here we re-assert those claims
# from the file, require the paper system to stay fully bounded under
# the mixed backend, cap the elements that go unbounded under rtc/mixed
# while bounded under cpa at 2, floor each system's rtc and mixed
# bounded counts at the recorded ones, smoke the --backend flag and the
# (backend rtc) spec syntax end to end, and — with the fresh BENCH_1.json still on
# disk — require the pure-CPA kernel timings within HYBRID_KERNEL_TOL_PCT
# of the perf run (the conversion layer must be pay-for-use; skip with
# HYBRID_GUARD=0 on a noisy machine).
dune exec bench/main.exe -- hybrid
jq -e '.paper_pure_agreement == true' BENCH_10.json > /dev/null \
  || { echo "check: rtc and cpa bounds differ on the paper system" >&2; exit 1; }
jq -e '[.paper_dominance[]] | all' BENCH_10.json > /dev/null \
  || { echo "check: a backend's bounds fall below DES observations" >&2; exit 1; }
jq -e '[.systems[] | select(.name == "paper") | .backends[]
        | .bounded == .elements and .status == "converged"] | all' BENCH_10.json > /dev/null \
  || { echo "check: paper system not fully bounded under every backend" >&2; exit 1; }
jq -e '.boundedness_regressions <= 2' BENCH_10.json > /dev/null \
  || { echo "check: more than 2 elements bounded under cpa go unbounded under rtc/mixed" >&2; exit 1; }
# per-system floor on the elements the curve backends bound
for floor in paper:5 gateway:6 avionics:10 fan_in_8:9 chain_12:11 network_8:30; do
  sys=${floor%%:*} min=${floor##*:}
  jq -e --arg s "$sys" --argjson m "$min" \
     '[.systems[] | select(.name == $s) | .backends[]
       | select(.backend == "rtc" or .backend == "mixed") | .bounded >= $m]
      | length == 2 and all' BENCH_10.json > /dev/null \
    || { echo "check: $sys bounds fewer than $min elements under rtc or mixed" >&2; exit 1; }
done
for b in spec cpa rtc; do
  dune exec bin/hem_tool.exe -- analyse --backend "$b" > /dev/null \
    || { echo "check: analyse --backend $b failed" >&2; exit 1; }
done
dune exec bin/hem_tool.exe -- analyse --file examples/hybrid.spec > /dev/null \
  || { echo "check: mixed-backend spec file failed to analyse" >&2; exit 1; }
dune exec bin/hem_tool.exe -- verify --file examples/hybrid.spec > /dev/null \
  || { echo "check: mixed-backend spec file failed verification" >&2; exit 1; }
if [ "${HYBRID_GUARD:-1}" = 1 ]; then
  htol="${HYBRID_KERNEL_TOL_PCT:-10}"
  for case_name in chain_16 paper_flat_sem; do
    ratio_guard "hybrid kernel case $case_name" perf \
      "$(full_ms BENCH_1.json cases "$case_name")" \
      "$(full_ms BENCH_10.json kernel "$case_name")" "$htol" \
      "check: backend plumbing slows ${case_name} more than ${htol}% vs perf run"
  done
fi
echo "check: hybrid backends ok (pure agreement + DES dominance on paper, mixed spec analyses + verifies)"

# --- kernel timings + pool scaling (BENCH_6.json) ---------------------
# Refreshes BENCH_6.json.  The bench itself asserts allocation-free
# packed fast paths and byte-identical sweep rows across jobs counts;
# here we check the headline claims: the periodic-eval budget of the
# OR-convolution kernels (39833 = the last recorded scalar count,
# 199167, divided by 5), and that requesting more jobs than cores never
# costs (the pool clamps to the machine).  The kernels' timing is gated
# by the kernel no-regression guard against BENCH_1.json above.
dune exec bench/main.exe -- scale
jq -e '[.kernels[] | select(.name == "paper_flat_sem")][0].periodic_evals <= 39833' BENCH_6.json > /dev/null \
  || { echo "check: paper_flat_sem periodic evals above 39833 (5x the scalar path's 199167)" >&2; exit 1; }
jq -e '.pool.rows_identical == true' BENCH_6.json > /dev/null
jq -e '.allocation_bytes_per_call.eval_packed <= 1 and .allocation_bytes_per_call.count_lt_packed <= 1' BENCH_6.json > /dev/null \
  || { echo "check: packed periodic fast path allocates" >&2; exit 1; }
if ! jq -e '[.pool.runs[] | select(.jobs == 4)][0].speedup_vs_jobs1 >= 0.95' BENCH_6.json > /dev/null; then
  echo "check: pool at jobs=4 costs more than 5% vs jobs=1" >&2
  exit 1
fi
cores6=$(jq '.pool.cores' BENCH_6.json)
if [ "$cores6" -ge 2 ]; then
  if ! jq -e '[.pool.runs[] | select(.jobs == 2)][0].speedup_vs_jobs1 > 1' BENCH_6.json > /dev/null; then
    echo "check: no pool speedup at 2 domains on a ${cores6}-core machine" >&2
    exit 1
  fi
fi
echo "check: kernel scale ok (paper_flat_sem $(jq '[.kernels[] | select(.name == "paper_flat_sem")][0].periodic_evals' BENCH_6.json) periodic evals, pool clamped to ${cores6} core(s))"

# --- exploration: determinism guard -----------------------------------
# The deterministic stdout of sweep/explore must be byte-identical at
# any job count (timing telemetry goes to stderr and is ignored here).
j1=$(mktemp) j4=$(mktemp)
dune exec bin/hem_tool.exe -- sweep --period S3=400..1500:100 \
  --cet-scale T3=90..114:2 --jobs 1 2> /dev/null > "$j1"
dune exec bin/hem_tool.exe -- sweep --period S3=400..1500:100 \
  --cet-scale T3=90..114:2 --jobs 4 2> /dev/null > "$j4"
if ! cmp -s "$j1" "$j4"; then
  echo "check: sweep output differs between --jobs 1 and --jobs 4" >&2
  diff "$j1" "$j4" >&2 || true
  exit 1
fi
variants=$(grep -c '^' "$j1")
rm -f "$j1" "$j4"
e1=$(mktemp) e4=$(mktemp)
dune exec bin/hem_tool.exe -- explore --jobs 1 2> /dev/null > "$e1"
dune exec bin/hem_tool.exe -- explore --jobs 4 2> /dev/null > "$e4"
if ! cmp -s "$e1" "$e4"; then
  echo "check: explore output differs between --jobs 1 and --jobs 4" >&2
  diff "$e1" "$e4" >&2 || true
  exit 1
fi
rm -f "$e1" "$e4"
echo "check: exploration determinism ok (sweep ${variants} lines + layout enumeration byte-identical at jobs 1 vs 4)"

# --- exploration: BENCH_3.json scaling sanity -------------------------
# Refreshes BENCH_3.json.  The bench itself asserts rows are identical
# across job counts; here we check the dedup structure, that 2 domains
# beat 1 whenever the machine has 2 cores (the sweep is ~46% cache
# hits, where per-item claims hand a key's duplicates to different
# workers and one may wait on the other's compute), and — only when the
# machine actually has 4 cores to spend — the scaling claim (>= 2x at 4
# domains; with fewer cores the pool clamps the request, recorded per
# run as effective_jobs, and no 2x can materialise).
dune exec bench/main.exe -- explore
jq -e '.rows_identical == true' BENCH_3.json > /dev/null
jq -e '.variants >= 200 and .cache_hits > 0 and (.variants == .unique + .cache_hits)' BENCH_3.json > /dev/null
jq -e '[.runs[] | has("effective_jobs")] | all' BENCH_3.json > /dev/null \
  || { echo "check: BENCH_3.json runs missing effective_jobs" >&2; exit 1; }
cores=$(jq '.cores' BENCH_3.json)
if [ "$cores" -ge 2 ]; then
  if ! jq -e '[.runs[] | select(.jobs == 2)][0].speedup_vs_jobs1 > 1' BENCH_3.json > /dev/null; then
    echo "check: no explore speedup at 2 domains on a ${cores}-core machine" >&2
    exit 1
  fi
  echo "check: explore 2-domain speedup ok ($(jq '[.runs[] | select(.jobs == 2)][0].speedup_vs_jobs1' BENCH_3.json)x, ${cores} cores)"
fi
if [ "$cores" -ge 4 ]; then
  if ! jq -e '[.runs[] | select(.jobs == 4)][0].speedup_vs_jobs1 >= 2' BENCH_3.json > /dev/null; then
    echo "check: explore speedup at 4 domains below 2x on a ${cores}-core machine" >&2
    exit 1
  fi
  echo "check: explore scaling ok ($(jq '[.runs[] | select(.jobs == 4)][0].speedup_vs_jobs1' BENCH_3.json)x at 4 domains, ${cores} cores)"
else
  echo "check: explore 4-domain scaling assertion skipped (${cores} core(s); dedup + determinism still verified)"
fi

# --- self-verification ------------------------------------------------
# The sanitizer + differential oracles must pass on the paper system
# (zero violations, byte-identical engine/cache outcomes, bounds
# dominating the simulator) and on a fixed-seed batch of fuzzed systems.
dune exec bin/hem_tool.exe -- verify > /dev/null
echo "check: verify ok (paper system: sanitizer + oracles clean)"
dune exec bin/hem_tool.exe -- verify --fuzz 25 --seed 2026 --horizon 100000 > /dev/null
echo "check: verify ok (25 fuzzed systems, seed 2026)"

# --- serve daemon smoke -----------------------------------------------
# Full client/server round on a temp Unix socket: load a session, make a
# warm edit (which must reuse analyses from the resident fixed point),
# read outcomes and per-session metrics, close, then SIGTERM the daemon
# and require a clean (exit 0) drain.  The built binary is used directly
# so the backgrounded daemon does not contend for the dune build lock.
HEM=./_build/default/bin/hem_tool.exe
sock=$(mktemp -u /tmp/hem_serve.XXXXXX.sock)
servelog=$(mktemp /tmp/hem_serve.XXXXXX.log)
"$HEM" serve --socket "$sock" > "$servelog" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2> /dev/null || true; rm -f "$sock" "$servelog"' EXIT
up=0
for _ in $(seq 1 100); do
  if "$HEM" client ping --socket "$sock" > /dev/null 2>&1; then up=1; break; fi
  sleep 0.05
done
if [ "$up" != 1 ]; then
  echo "check: serve daemon did not come up on $sock" >&2
  cat "$servelog" >&2
  exit 1
fi
sid=$("$HEM" client load --socket "$sock" --file examples/paper.spec | jq -r '.body.session')
if [ -z "$sid" ] || [ "$sid" = null ]; then
  echo "check: serve load returned no session id" >&2
  exit 1
fi
reused=$("$HEM" client edit --socket "$sock" --session "$sid" --task-priority t3=4 \
  | jq '.body.stats["resources-reused"]')
if [ "$reused" -lt 1 ]; then
  echo "check: warm edit reused $reused analyses, expected > 0" >&2
  exit 1
fi
"$HEM" client analyse --socket "$sock" --session "$sid" \
  | jq -e '.status == 0 and (.body.outcomes | length > 0)' > /dev/null \
  || { echo "check: serve analyse returned no outcomes" >&2; exit 1; }
"$HEM" client metrics --socket "$sock" --session "$sid" \
  | jq -e '.body.requests >= 2 and .body.counters["busy_window.windows"] >= 1
           and .body.process.counters["serve.requests"] >= 1' > /dev/null \
  || { echo "check: serve metrics missing per-session counters" >&2; exit 1; }
"$HEM" client close --socket "$sock" --session "$sid" > /dev/null
kill -TERM "$serve_pid"
code=0
wait "$serve_pid" || code=$?
if [ "$code" != 0 ]; then
  echo "check: serve daemon exited $code on SIGTERM, expected 0" >&2
  cat "$servelog" >&2
  exit 1
fi
trap - EXIT
rm -f "$sock" "$servelog"
echo "check: serve daemon smoke ok (warm edit reused ${reused} analyses, clean SIGTERM drain)"
echo "check: ok"
