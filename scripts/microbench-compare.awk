# microbench-compare gates one `go test -bench -count N` output (NEW,
# the second input) against another (OLD, the first) and exits 1 on a
# regression of any benchmark both ran:
#
#   - B/op is deterministic, so its median may rise by at most limit %;
#   - ns/op drifts between runs, so it regresses only when its median
#     rises by more than limit % and the new min–max range lies wholly
#     above the old one. A larger rise whose ranges overlap is noise.
#
# Benchmarks that only one output ran are skipped with a warning. Used
# by `make microbench-compare`:
#
#	awk -f scripts/microbench.awk -f scripts/microbench-compare.awk OLD NEW
BEGIN { limit = 10 }
END {
	if (files != 2) {
		print "microbench-compare: want two outputs, OLD and NEW; got " files + 0
		exit 2
	}
	common = 0
	for (k = 1; k <= keys; k++) {
		split(order[k], parts, " ")
		name = parts[1]
		if (parts[2] != "ns/op" && parts[2] != "B/op")
			continue
		if (!((1, name) in has) || !((2, name) in has)) {
			if (!(name in warned)) {
				warned[name] = 1
				printf "microbench-compare: skipping %s (only in %s)\n", name, ((1, name) in has) ? "OLD" : "NEW"
			}
			continue
		}
		if (!common++)
			printf "%-44s %-5s %32s %32s %8s\n", "benchmark", "unit", "OLD median [min – max]", "NEW median [min – max]", "Δmedian"
		stats(1, order[k])
		oldMed = med; oldHi = hi; old = sprintf("%s [%s – %s]", num(med), num(lo), num(hi))
		stats(2, order[k])
		cur = sprintf("%s [%s – %s]", num(med), num(lo), num(hi))
		if (oldMed > 0) {
			d = 100 * (med - oldMed) / oldMed
			delta = sprintf("%+.1f%%", d)
		} else {
			d = med > 0 ? limit + 1 : 0
			delta = med > 0 ? "new" : "+0.0%"
		}
		if (parts[2] == "B/op")
			verdict = d > limit ? "REGRESSION" : "ok"
		else
			verdict = d <= limit ? "ok" : lo > oldHi ? "REGRESSION" : "noise"
		if (verdict == "REGRESSION") failed++
		printf "%-44s %-5s %32s %32s %8s  %s\n", name, parts[2], old, cur, delta, verdict
	}
	if (!common) {
		print "FAIL: OLD and NEW ran no benchmark in common"
		exit 1
	}
	if (failed) {
		printf "FAIL: %d regression(s): B/op median above +%d%%, or ns/op median above +%d%% with separated ranges\n", failed, limit, limit
		exit 1
	}
	print "PASS"
}
