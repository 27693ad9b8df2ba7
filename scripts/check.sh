#!/usr/bin/env bash
# Full verification: build + tier-1 tests (which include the counted
# work budgets and the propagation/backend tightness gates over the
# named systems, test/test_registry.ml), then end-to-end smokes of the
# CLI (trace, metrics snapshot, profiler, convergence CSV byte
# stability, deadline/budget degradation, propagation and backend
# flags), the pool scaling bench (BENCH_6.json), the exploration checks
# (jobs-determinism byte diff, the unknown-element sweep and explore
# errors, degenerate integer flags, and BENCH_3.json scaling sanity),
# the self-verification smoke (sanitizer + differential oracles on the
# paper system and a fixed-seed fuzz batch), and a serve-daemon smoke
# (warm session round over a Unix socket + clean SIGTERM drain); it
# ends by printing the library line counts.  Nothing here compares
# wall-clock times against recorded ones.
set -euo pipefail
cd "$(dirname "$0")/.."
# Hard wall-clock ceiling: a hung fixed point or deadlocked pool must
# fail the check, not stall it (tune with CHECK_TIMEOUT_S).
timeout "${CHECK_TIMEOUT_S:-900}" dune build @runtest

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
# the hybrid example runs resources on the RTC backend: its snapshot
# must carry the RTC kernel counters
dune exec bin/hem_tool.exe -- analyse --file examples/hybrid.spec --metrics "$metrics" > /dev/null
jq -e '.counters["rtc.deconv_rows"] >= 1' "$metrics" > /dev/null \
  || { echo "check: rtc.deconv_rows counter missing from the hybrid snapshot" >&2; exit 1; }
# hybrid.spec reuses no RTC item, so only the key's presence is checked
jq -e '.counters | has("rtc.items_reused")' "$metrics" > /dev/null \
  || { echo "check: rtc.items_reused counter missing from the hybrid snapshot" >&2; exit 1; }
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

# --- propagation and backend flags -----------------------------------
# Every propagation mode and backend is accepted on the CLI, and the
# mixed-backend spec syntax analyses and verifies end to end.  The modes
# run on the avionics spec, the shipped system whose bounds depend on
# the mode (on the default paper system all six outputs are identical).
for mode in hem flat; do
  for pmode in theta_tau jitter jitter_offset jitter_bmin busy_window optimal; do
    dune exec bin/hem_tool.exe -- analyse --file examples/specs/avionics.scm \
      --mode "$mode" --propagation "$pmode" > /dev/null \
      || { echo "check: analyse --mode $mode --propagation $pmode failed" >&2
           exit 1; }
  done
done
for b in spec cpa rtc; do
  dune exec bin/hem_tool.exe -- analyse --backend "$b" > /dev/null \
    || { echo "check: analyse --backend $b failed" >&2; exit 1; }
done
dune exec bin/hem_tool.exe -- analyse --file examples/hybrid.spec > /dev/null \
  || { echo "check: mixed-backend spec file failed to analyse" >&2; exit 1; }
dune exec bin/hem_tool.exe -- verify --file examples/hybrid.spec > /dev/null \
  || { echo "check: mixed-backend spec file failed verification" >&2; exit 1; }
echo "check: propagation and backend flags ok (mixed spec analyses + verifies)"

# --- pool scaling (BENCH_6.json) -------------------------------------
# Refreshes BENCH_6.json.  The bench itself asserts byte-identical sweep
# rows across jobs counts; here we check that requesting more jobs than
# cores never costs (the pool clamps to the machine) and that 2 domains
# beat 1 on a 2-core machine.
dune exec bench/main.exe -- scale
jq -e '.pool.rows_identical == true' BENCH_6.json > /dev/null
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
echo "check: pool scaling ok (pool clamped to ${cores6} core(s))"

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
# expect_error CODE PATTERN ARGS...: hem_tool ARGS must exit with CODE
# within 10 s and print PATTERN on stderr
expect_error() {
  local want=$1 pattern=$2 code=0 err
  shift 2
  err=$(timeout 10 ./_build/default/bin/hem_tool.exe "$@" 2>&1 > /dev/null) \
    || code=$?
  if [ "$code" != "$want" ] || ! grep -q -- "$pattern" <<< "$err"; then
    echo "check: hem_tool $* gave exit $code, expected $want: $err" >&2
    exit 1
  fi
}
# an axis naming an unknown source (the paper system's are S1-S4), or an
# explicitly named bus without frames, is a structured invalid-spec
# error with exit 1, not an escaped exception or a silent fallback
expect_error 1 '^error: invalid spec: ' sweep --period s3=500,1000
expect_error 1 '^error: invalid spec: ' explore --bus nosuch
echo "check: sweep and explore reject unknown elements with invalid spec"
# a zero step, period, width or count is a usage error (cmdliner's exit
# 124) at parse time: figure4 --step 0 used to print rows forever
expect_error 124 'expected an integer >= 1' figure4 --step 0
expect_error 124 'expected an integer >= 1' analyse --s3-period 0
expect_error 124 'expected an integer >= 1' explore --max-frames 0
# a negative start, row count or window bound is one too: gantt --from=-5
# drew t=-5 .., profile --top=-1 an empty table, figure4 --max-dt=-5 no rows
expect_error 124 'expected an integer >= 0' gantt --from=-5
expect_error 124 'expected an integer >= 1' profile --top=-1
expect_error 124 'expected an integer >= 1' figure4 --max-dt=-5
# a negative worker count is one at parse time too, not a runtime error
expect_error 124 'expected an integer >= 0' sweep --jobs=-1
# a deadline that is not a finite number >= 0, or a negative budget, is
# one too, rather than a run with no deadline (nan) or one that degrades
# at once (-1)
expect_error 124 'expected a finite number >= 0' analyse --deadline=nan
expect_error 124 'expected a finite number >= 0' analyse --deadline=-1
expect_error 124 'expected an integer >= 0' analyse --budget=-1
echo "check: degenerate integer, deadline and budget flags are usage errors"

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
scripts/loc.sh
