#!/usr/bin/env bash
# pairs.sh — paired runs of the repository benchmark (bench/e2e): a parent
# revision against the working tree, alternating which side runs first in
# each pair, for one workload. It prints the four gated end-to-end metrics
# and the failed-op count of every run, then each side's medians.
#
#   bash bench/pairs.sh PARENT WORKLOAD PAIRS SEED
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=batch_score PAIRS=4 SEED=1
#
# The parent's committed files are exported (git archive) into a fresh
# directory under $TMPDIR (default /tmp), which a trap removes. Every run
# is `bash bench/e2e/run.sh --workload W --seconds 20 --trace 0 --seed S`
# in the foreground under `timeout`; nothing is put in the background. The
# script exits non-zero if a run fails or if a go, *.test, e2e, ravensql or
# ravenbench process that was not running at start is still alive at the
# end.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 PARENT WORKLOAD PAIRS SEED" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed=$4
repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
metrics=(setup_s op_ms_p50 ops_per_s peak_rss_mb)
watched='^(go|e2e|ravensql|ravenbench|.*\.test)$'

before=$(ps -eo pid=,comm= | awk -v re="$watched" '$2 ~ re {print $1}')
base=$(mktemp -d "${TMPDIR:-/tmp}/raven-pairs.XXXXXX")
trap 'rm -rf "$base"' EXIT
git -C "$repo" archive "$parent" | tar -x -C "$base"

# run SIDE DIR appends one "side metric… failed" row to $base/rows.
run() {
	local side=$1 dir=$2 out
	out=$(timeout -k 10 300 bash "$dir/bench/e2e/run.sh" \
		--workload "$workload" --seconds 20 --trace 0 --seed "$seed") || {
		echo "$out" >&2
		echo "pairs: $side run failed" >&2
		exit 1
	}
	local row=$side
	for m in "${metrics[@]}"; do
		row+=" $(awk -v w="$workload" -v m="$m" '$1 == w && $2 == m {print $3}' <<<"$out")"
	done
	row+=" $(tail -n 1 <<<"$out" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
	echo "$row" >>"$base/rows"
	printf '%-7s %-6s %10s %10s %10s %12s %7s\n' "$pair" $row
}

printf '%-7s %-6s %10s %10s %10s %12s %7s\n' pair side "${metrics[@]}" failed
for ((pair = 1; pair <= pairs; pair++)); do
	if ((pair % 2)); then
		run parent "$base"
		run change "$repo"
	else
		run change "$repo"
		run parent "$base"
	fi
done

echo "medians over $pairs pairs ($workload, seed $seed):"
for side in parent change; do
	line=$side
	for col in 2 3 4 5 6; do
		line+=" $(awk -v s="$side" -v c="$col" '$1 == s {print $c}' "$base/rows" | sort -g |
			awk '{v[NR] = $1} END {print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2}')"
	done
	printf '%-7s %-6s %10s %10s %10s %12s %7s\n' median $line
done

left=$(ps -eo pid=,comm= | awk -v re="$watched" -v old=" $(echo $before) " \
	'$2 ~ re && index(old, " " $1 " ") == 0 {print $1, $2}')
if [ -n "$left" ]; then
	echo "pairs: processes left running:" >&2
	echo "$left" >&2
	exit 1
fi
