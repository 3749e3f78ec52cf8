#!/bin/sh
# microbench-compare-test pins the verdicts of microbench-compare.awk
# on the sample outputs in scripts/testdata. run-a.out and run-b.out are
# two `make microbench` runs of one tree; each planted file is run-a.out
# with one benchmark edited:
#
#   slow-15pct.out   BenchmarkSimulatorReplay ns/op ×1.15, ranges apart
#   noise-12pct.out  BenchmarkSimulatorReplayBatch ns/op ×1.12, ranges overlap
#   alloc-11pct.out  BenchmarkProfileAnalyze/li/60k B/op ×1.11
#
# Run from anywhere: sh scripts/microbench-compare-test.sh
cd "$(dirname "$0")" || exit 2
failed=0

# expect NEW STATUS PATTERN checks that comparing NEW against run-a.out
# exits with STATUS and that every flagged line (a regression or a
# noise verdict) matches PATTERN; an empty PATTERN wants none flagged.
expect() {
	out=$(awk -f microbench.awk -f microbench-compare.awk testdata/run-a.out "testdata/$1")
	status=$?
	flagged=$(printf '%s\n' "$out" | grep -E '(REGRESSION|noise)$')
	ok=1
	[ "$status" -eq "$2" ] || ok=0
	if [ -z "$3" ]; then
		[ -z "$flagged" ] || ok=0
	else
		[ -n "$flagged" ] && ! printf '%s\n' "$flagged" | grep -qvxE "$3" || ok=0
	fi
	if [ "$ok" -eq 0 ]; then
		echo "microbench-compare $1: want exit $2 flagging '${3:-nothing}', got exit $status:"
		printf '%s\n' "$out"
		failed=1
	fi
}

expect run-b.out 0 ''
expect slow-15pct.out 1 'BenchmarkSimulatorReplay-2 +ns/op .*REGRESSION'
expect noise-12pct.out 0 'BenchmarkSimulatorReplayBatch-2 +ns/op .*noise'
expect alloc-11pct.out 1 'BenchmarkProfileAnalyze/li/60k-2 +B/op .*REGRESSION'
[ "$failed" -eq 0 ] && echo "microbench-compare: pinned verdicts hold"
exit "$failed"
