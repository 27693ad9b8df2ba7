#!/usr/bin/env bash
# Builds hem_bench and the hem_tool daemon from source, then runs one
# benchmark invocation from the root of the source tree.  Arguments are
# passed to `hem_bench run`, e.g.
#
#   bash bench/e2e/run.sh --workload sweep --seed 3 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep every build artefact inside the tree
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/hem_bench.exe ./bin/hem_tool.exe >&2
bench=./_build/default/bench/e2e/hem_bench.exe
# Every workload puts its load on one thread, so the benchmark and the
# daemon it serves against run on one CPU, the last this process may use:
# on a shared host a CPU that idles and wakes up again runs slower for a
# while, and a thread moved to the other CPU, or a reply handed across
# CPUs, pays that.
if command -v taskset >/dev/null; then
  cpus=$(taskset -pc $$)
  cpus=${cpus##*: }
  exec taskset -c "${cpus##*[,-]}" "$bench" run "$@"
fi
exec "$bench" run "$@"
