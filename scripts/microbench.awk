# microbench reads `go test -bench -count N` outputs and keeps every
# sample, keyed by input file (1, 2, ...), benchmark and unit. Run it
# ahead of microbench-summary.awk or microbench-compare.awk in one awk
# program; stats gives them each key's median and min–max.
FNR == 1 { files++ }
/^Benchmark/ {
	has[files, $1] = 1
	for (i = 3; i < NF; i += 2) {
		key = $1 " " $(i + 1)
		if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
		v[files, key, ++n[files, key]] = $i
	}
}

# stats sets med, lo and hi to the median, min and max of the samples
# of key in file f and returns their count.
function stats(f, key,    m, i, j, t) {
	m = n[f, key]
	for (i = 1; i <= m; i++) s[i] = v[f, key, i] + 0
	for (i = 2; i <= m; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
	med = (m % 2) ? s[(m + 1) / 2] : (s[m / 2] + s[m / 2 + 1]) / 2
	lo = s[1]
	hi = s[m]
	return m
}

function num(x) {
	return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x)
}
