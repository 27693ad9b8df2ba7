#!/usr/bin/env bash
# Line counts of the library: the .ml+.mli lines of each lib/ library,
# then the production total, which leaves out the lib/verify oracles.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in lib/*/; do
  lib=$(basename "$dir")
  n=$(cat "$dir"*.ml "$dir"*.mli 2>/dev/null | wc -l)
  printf '%-14s %6d\n' "$lib" "$n"
  [ "$lib" = verify ] || total=$((total + n))
done
printf '%-14s %6d\n' "production" "$total"
