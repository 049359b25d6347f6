#!/usr/bin/env bash
# Re-runs every workload's correctness oracles on a seed that the
# reference figures in README.md did not use (default 1009), with short
# runs, and fails if any workload reports correct: false. Run it from
# the repository root:
#
#   bash perfbench/check.sh [seed]
set -euo pipefail
seed=${1:-1009}
status=0
for w in paper-fuse stock-days serve-live routed; do
	line=$(bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --workload "$w" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
	echo "$w: $line"
	case "$line" in
	*'"correct":true'*) ;;
	*) status=1 ;;
	esac
done
exit $status
