# microbench-summary prints, for every benchmark and unit of one
# `go test -bench -count N` output, the median of its N samples and
# their min–max range. Used by `make microbench`:
#
#	awk -f scripts/microbench.awk -f scripts/microbench-summary.awk microbench.out
END {
	for (k = 1; k <= keys; k++) {
		m = stats(1, order[k])
		split(order[k], parts, " ")
		printf "%-56s %12s %-10s [%s – %s] n=%d\n", parts[1], num(med), parts[2], num(lo), num(hi), m
	}
}
