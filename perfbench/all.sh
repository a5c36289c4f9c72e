#!/usr/bin/env bash
# Runs every benchmark workload, untraced, one after the other, and prints
# each workload's summary and result line. Run it from the repository
# root; arguments other than the workload pass through to run.sh:
#
#   bash perfbench/all.sh --seed 1 --seconds 25
set -euo pipefail

status=0
for w in serve-batch serve-mixed engine-paper-mix engine-long-blocks; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" --trace 0 "$@" || status=1
done
exit $status
