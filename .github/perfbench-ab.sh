#!/usr/bin/env bash
# Same-host A/B gate on perfbench's end-to-end metrics.
#
#   bash .github/perfbench-ab.sh BASE_REV
#
# Run from the root of a git checkout (the head). BASE_REV is checked out
# into a temporary `git worktree`; each side builds and runs its own,
# unchanged perfbench/run.sh. Per gated workload it runs PAIRS pairs of
# measuring runs (--trace 0) of BENCHMARK.json's run_seconds each, seed =
# pair index, base first in odd pairs and head first in even ones, so drift
# on the host lands on both sides alike. It then fails when, on any
# workload:
#   - the head's median of an end_to_end metric in BENCHMARK.json is worse
#     than the base's median by more than that metric's bound (a fraction);
#   - a head run reports correct:false;
#   - the head reports more failed operations than the base.
# The run length, the bounds and the metric list come from the head's
# BENCHMARK.json: the same rule the benchmark applies when it compares a
# change to its parent. Shorter runs do not hold still: at 5 s, the two
# sides of one commit once put serve's median setup_s 37% apart.
set -euo pipefail

readonly PAIRS=5
readonly WORKLOADS=(suite sizing serve)

if [ $# -ne 1 ]; then
	echo "usage: bash .github/perfbench-ab.sh BASE_REV" >&2
	exit 2
fi
head=$(git rev-parse --show-toplevel)
run_seconds=$(jq -e '.run_seconds' "$head/BENCHMARK.json")
work=$(mktemp -d)
git -C "$head" worktree add --quiet --detach "$work/base" "$1"
trap 'git -C "$head" worktree remove --force "$work/base"; rm -rf "$work"' EXIT

# run SIDE WORKLOAD SEED appends the run's JSON result line to
# $work/WORKLOAD.SIDE.jsonl. A run that fails its checks exits 1 but still
# prints the line; one that prints no JSON line fails the gate.
run() {
	local side=$1 workload=$2 seed=$3 dir line
	dir=$head
	[ "$side" = base ] && dir=$work/base
	line=$(cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$run_seconds" --trace 0 | tail -n 1) || true
	if ! jq -e '.metrics' <<<"$line" >/dev/null 2>&1; then
		echo "::error::$side $workload seed $seed printed no result line"
		exit 1
	fi
	echo "$side $workload seed $seed: $line"
	echo "$line" >>"$work/$workload.$side.jsonl"
}

status=0
for workload in "${WORKLOADS[@]}"; do
	for pair in $(seq 1 "$PAIRS"); do
		if [ $((pair % 2)) -eq 1 ]; then
			run base "$workload" "$pair"
			run head "$workload" "$pair"
		else
			run head "$workload" "$pair"
			run base "$workload" "$pair"
		fi
	done
	echo "workload $workload: metric, base median, head median, worse by, bound"
	jq -rn --slurpfile bench "$head/BENCHMARK.json" \
		--slurpfile base "$work/$workload.base.jsonl" \
		--slurpfile head "$work/$workload.head.jsonl" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		($bench[0].end_to_end[] as $m
			| ([$base[].metrics[$m.name].value] | median) as $b
			| ([$head[].metrics[$m.name].value] | median) as $h
			| ((if $m.better == "lower" then $h - $b else $b - $h end) / $b) as $worse
			| "\(if $worse > $m.bound then "FAIL" else "ok  " end) \($m.name) \($b) \($h) \($worse * 1000 | round / 10)% \($m.bound * 100)%"),
		(if any($head[]; .correct | not) then "FAIL correct:false in a head run" else empty end),
		(([$base[].failed] | add) as $bf | ([$head[].failed] | add) as $hf
			| if $hf > $bf then "FAIL failed operations: base \($bf), head \($hf)" else empty end)
	' | tee "$work/$workload.verdict"
	if grep -q '^FAIL' "$work/$workload.verdict"; then
		status=1
	fi
done
exit "$status"
