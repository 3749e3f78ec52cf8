#!/bin/sh
# microbench-ab runs the layer microbenchmarks of BASE (another checkout
# of this repository, say a `git archive` copy of the parent commit) and
# of this tree interleaved, so that drift of the machine between the
# two sides falls on both alike: it builds the root and internal/engine
# test binaries of each side once, then runs 6 rounds of one pass per
# side, alternating which side goes first. It writes BASE's samples to
# microbench-base.out and this tree's to microbench.out, the OLD and NEW
# of `make microbench-compare`.
#
# Run from the repository root:
#
#	sh scripts/microbench-ab.sh BASE ROOT_BENCH ENGINE_BENCH
#
# ROOT_BENCH and ENGINE_BENCH are the -bench patterns of the root and
# internal/engine packages; `make microbench-ab BASE=<dir>` passes the
# ones `make microbench` runs, then compares the two outputs.
set -eu

[ $# -eq 3 ] || { echo "usage: $0 BASE ROOT_BENCH ENGINE_BENCH" >&2; exit 2; }
[ -f "$1/go.mod" ] || { echo "microbench-ab: BASE=$1 is not a checkout of this repository" >&2; exit 2; }
base=$(cd "$1" && pwd)
tree=$(pwd)
rootBench=$2
engineBench=$3
rounds=6
GO=${GO:-go}

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for side in base tree; do
	eval "dir=\$$side"
	(cd "$dir" && $GO test -c -o "$bin/$side-root.test" . && $GO test -c -o "$bin/$side-engine.test" ./internal/engine/)
done

# pass SIDE OUT runs one -count 1 pass of SIDE's binaries, each from its
# package directory, and appends the output to OUT.
pass() {
	eval "dir=\$$1"
	(cd "$dir" && "$bin/$1-root.test" -test.run '^$' -test.bench "$rootBench" -test.benchmem -test.count 1 -test.timeout 30m) >>"$2"
	(cd "$dir/internal/engine" && "$bin/$1-engine.test" -test.run '^$' -test.bench "$engineBench" -test.benchmem -test.count 1 -test.timeout 30m) >>"$2"
}

: >microbench-base.out
: >microbench.out
r=1
while [ "$r" -le "$rounds" ]; do
	echo "microbench-ab: round $r of $rounds" >&2
	if [ $((r % 2)) -eq 1 ]; then
		pass base "$tree/microbench-base.out"
		pass tree "$tree/microbench.out"
	else
		pass tree "$tree/microbench.out"
		pass base "$tree/microbench-base.out"
	fi
	r=$((r + 1))
done
