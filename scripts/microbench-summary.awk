# microbench-summary reads `go test -bench -count N` output and prints,
# for every benchmark and unit, the median of its N samples and their
# min–max range. Used by `make microbench`.
/^Benchmark/ {
	name = $1
	for (i = 3; i < NF; i += 2) {
		key = name " " $(i + 1)
		if (!(key in n)) order[++keys] = key
		v[key, ++n[key]] = $i
	}
}
END {
	for (k = 1; k <= keys; k++) {
		key = order[k]
		m = n[key]
		for (i = 1; i <= m; i++) s[i] = v[key, i] + 0
		for (i = 2; i <= m; i++)
			for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
		med = (m % 2) ? s[(m + 1) / 2] : (s[m / 2] + s[m / 2 + 1]) / 2
		split(key, parts, " ")
		printf "%-56s %12s %-10s [%s – %s] n=%d\n", parts[1], num(med), parts[2], num(s[1]), num(s[m]), m
	}
}

function num(x) {
	return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x)
}
