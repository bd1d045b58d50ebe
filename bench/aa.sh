#!/usr/bin/env bash
# A/A check: run the same code K times (default 10, seeds S..S+K-1, default
# S=1), print per workload and end-to-end metric the quartiles, the spread
# (IQR/median) and the largest pairwise difference next to the metric's
# bound, and fail if a spread exceeds its bound.
#   bench/aa.sh [K] [S] [extra pqperf flags, e.g. -workload pq_full]
set -euo pipefail
sets="${1:-10}"
seed="${2:-1}"
shift $(( $# > 2 ? 2 : $# ))
exec bash "$(dirname "$0")/run.sh" -repeat "$sets" -seed "$seed" "$@"
