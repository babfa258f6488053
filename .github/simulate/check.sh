#!/usr/bin/env bash
# Runs `simulate` on every config in this directory at --threads 1 and 2 and
# checks that stats.csv and fit.json are byte-identical and that the
# manifests' abort and bin-size reports are equal.
#
# Usage: bash .github/simulate/check.sh OUT COMMAND...
#   bash .github/simulate/check.sh ci-out/simulate swstream
#   PYTHONPATH=src bash .github/simulate/check.sh ci-out/simulate python -m swstream.cli
#
# The configs:
#   readme                the README config (si_ml, n = 16)
#   readme-si_universal   the same with the single-stream universal decoder,
#                         whose suffix entropies come from the count step
#   ml-n24                the test_8 source with ml, the longest
#                         single-stream replay (n = 24)
#   mc-sw-universal       the mc-sw-universal benchmark config
#   swu-ex2               sw_universal on example 2 at x (1, 1, 2) and
#                         y (1, 0), n = 12: y bins of about 127 lanes, so the
#                         score pass runs groups of several trials and blocks
#                         of several trials
#   swu-3x2               sw_universal on a 3 x 2 table at x 2 bits and y 1
#                         bit, n = 8: x nodes with three children
#   swml-ex2              the same with sw_ml: about 300 pairs per trial, so
#                         trials straddle the ML kernel's 4,096-pair blocks
#   si_ml-5x5             si_ml on a 5 x 5 table (25 joint symbols), 3 bits
#                         a symbol, n = 8: about 9,100 pairs in one chunk, so
#                         trials straddle the ML kernel's 4,096-pair blocks
set -euo pipefail
out=$1
shift
for config in "$(dirname "$0")"/*.json; do
  name=$(basename "$config" .json)
  for threads in 1 2; do
    "$@" simulate "$config" --threads "$threads" --out "$out/$name-t$threads"
  done
  cmp "$out/$name-t1/stats.csv" "$out/$name-t2/stats.csv"
  cmp "$out/$name-t1/fit.json" "$out/$name-t2/fit.json"
  python3 - "$out/$name-t1" "$out/$name-t2" <<'EOF'
import json, sys
a, b = (json.load(open(d + "/manifest.json")) for d in sys.argv[1:])
bad = [k for k in ("aborted", "aborted_by_step", "rate_x_upper", "final_bin_size")
       if a[k] != b[k]]
sys.exit(f"manifests differ in {bad}" if bad else 0)
EOF
done
