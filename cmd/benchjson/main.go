// Command benchjson converts `go test -bench` text output into a JSON
// report of domain metrics (ns/op, cache-hit-%, latency-err-%, ...) and
// optionally folds in a baseline report for before/after comparison.
//
// Usage:
//
//	go test -bench=. -benchmem | benchjson -out BENCH_PR2.json [-baseline file]
//	benchjson -compare BENCH_PR3.json BENCH_PR4.json
//	go test -bench=. -benchmem | benchjson -compare BENCH_PR3.json
//
// The baseline file is a previous benchjson report (or a hand-seeded
// one); its benchmark metrics are embedded under "baseline" and a
// "speedup" map records baseline-ns/op ÷ current-ns/op per benchmark
// present in both.
//
// With -compare, benchjson prints a per-benchmark delta table (ns/op,
// B/op, allocs/op) of the current results — a report file given as the
// positional argument, or bench text on stdin — against the old report,
// and exits non-zero when any benchmark's ns/op or B/op regressed by
// more than 10%. Benchmarks present in only one report are skipped
// with a warning, and any "search-*" units (search-evals,
// search-coverage-pct from the heuristic-search benchmarks) are
// tabulated after the timing table, with a one-sided warning — not a
// failure — when a benchmark's coverage drops more than 2 points below
// the old report. This is the CI regression gate behind
// `make bench-compare`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"memorex/internal/cliutil"
)

// Bench is one benchmark's parsed result: its iteration count and every
// reported metric (ns/op, B/op, allocs/op and the b.ReportMetric ones)
// keyed by unit.
type Bench struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the JSON document benchjson writes.
type Report struct {
	Benchmarks map[string]Bench   `json:"benchmarks"`
	Baseline   map[string]Bench   `json:"baseline,omitempty"`
	Speedup    map[string]float64 `json:"speedup,omitempty"`
}

// regressionLimit is the ns/op or B/op increase (fractional) above
// which -compare fails the run.
const regressionLimit = 0.10

func main() {
	cliutil.Init("benchjson")
	out := flag.String("out", "", "output file (default: stdout)")
	baseline := flag.String("baseline", "", "previous benchjson report to embed for before/after comparison")
	compare := flag.String("compare", "", "previous benchjson report to diff against; prints deltas and fails on >10% ns/op or B/op regression")
	flag.Parse()

	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			log.Fatal(err)
		}
		var cur map[string]Bench
		if path := flag.Arg(0); path != "" {
			rep, err := loadReport(path)
			if err != nil {
				log.Fatal(err)
			}
			cur = rep
		} else {
			cur = parseStdin()
		}
		if !printDeltas(os.Stdout, old, cur) {
			os.Exit(1)
		}
		return
	}

	rep := Report{Benchmarks: parseStdin()}
	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		rep.Baseline = base
		rep.Speedup = map[string]float64{}
		for name, b := range base {
			cur, ok := rep.Benchmarks[name]
			if !ok {
				continue
			}
			before, after := b.Metrics["ns/op"], cur.Metrics["ns/op"]
			if before > 0 && after > 0 {
				rep.Speedup[name] = before / after
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", *out)
}

// parseStdin parses `go test -bench` text from stdin into benchmark
// results, failing loudly when none are found.
func parseStdin() map[string]Bench {
	benches := map[string]Bench{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, b, ok := parseLine(sc.Text())
		if ok {
			benches[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(benches) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	return benches
}

// loadReport reads a benchjson report file and returns its benchmarks.
func loadReport(path string) (map[string]Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in report", path)
	}
	return rep.Benchmarks, nil
}

// printDeltas writes a per-benchmark delta table of the canonical
// metrics and reports whether the run passes the regression gate: no
// benchmark's ns/op (wall time) or B/op (allocation growth) may grow
// by more than regressionLimit. Benchmarks present in only one report
// are skipped with a warning — they carry no before/after signal —
// and any heuristic-search units the instrumented benchmarks report
// are printed after the timing table.
func printDeltas(w io.Writer, old, cur map[string]Bench) bool {
	names := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range sortedNames(old) {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(w, "benchjson: warning: skipping %s (only in the old report)\n", name)
		}
	}
	for _, name := range sortedNames(cur) {
		if _, ok := old[name]; !ok {
			fmt.Fprintf(w, "benchjson: warning: skipping %s (only in the new report)\n", name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(w, "benchjson: no common benchmarks to compare")
		return false
	}
	pass := true
	fmt.Fprintf(w, "%-34s %14s %14s %8s %8s %10s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns/op", "ΔB/op", "Δallocs")
	for _, name := range names {
		o, c := old[name].Metrics, cur[name].Metrics
		dNS := delta(o["ns/op"], c["ns/op"])
		dB := delta(o["B/op"], c["B/op"])
		var flags []string
		if !math.IsNaN(dNS) && dNS > regressionLimit*100 {
			pass = false
			flags = append(flags, "REGRESSION")
		}
		if !math.IsNaN(dB) && dB > regressionLimit*100 {
			pass = false
			flags = append(flags, "ALLOC-REGRESSION")
		}
		flag := ""
		if len(flags) > 0 {
			flag = "  " + strings.Join(flags, " ")
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %8s %8s %10s%s\n",
			name, o["ns/op"], c["ns/op"],
			pct(dNS), pct(dB), pct(delta(o["allocs/op"], c["allocs/op"])), flag)
	}
	printSearchMetrics(w, old, cur, names)
	if !pass {
		fmt.Fprintf(w, "FAIL: ns/op or B/op regression above %.0f%%\n", regressionLimit*100)
	}
	return pass
}

// sortedNames returns the benchmark names of a report in sorted order.
func sortedNames(m map[string]Bench) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// coverageDropLimit is the search-coverage loss (percentage points vs
// the committed baseline) above which -compare warns. The heuristic
// drivers are stochastic across code changes (any reordering of engine
// requests walks a different trajectory), so coverage gates warn
// one-sidedly instead of failing the run; the hard >=90% floor lives in
// the explore package's quality-gate test.
const coverageDropLimit = 2.0

// printSearchMetrics prints the heuristic-search units the
// instrumented benchmarks report — search-evals (budget consumption)
// and search-coverage-pct (pareto coverage vs the Full truth) — side
// by side for every common benchmark that reports any, and warns when
// a benchmark's coverage dropped more than coverageDropLimit points
// below the old report. The warning is one-sided: improvements and
// small noise stay quiet.
func printSearchMetrics(w io.Writer, old, cur map[string]Bench, names []string) {
	header := false
	for _, name := range names {
		o, c := old[name].Metrics, cur[name].Metrics
		units := map[string]bool{}
		for u := range o {
			if strings.HasPrefix(u, "search-") {
				units[u] = true
			}
		}
		for u := range c {
			if strings.HasPrefix(u, "search-") {
				units[u] = true
			}
		}
		if len(units) == 0 {
			continue
		}
		if !header {
			header = true
			fmt.Fprintf(w, "\n%-34s %-24s %14s %14s\n", "benchmark", "search metric", "old", "new")
		}
		sorted := make([]string, 0, len(units))
		for u := range units {
			sorted = append(sorted, u)
		}
		sort.Strings(sorted)
		for _, u := range sorted {
			fmt.Fprintf(w, "%-34s %-24s %14s %14s\n", name, u, metricVal(o, u), metricVal(c, u))
		}
		oc, okO := o["search-coverage-pct"]
		cc, okC := c["search-coverage-pct"]
		if okO && okC && oc-cc > coverageDropLimit {
			fmt.Fprintf(w, "benchjson: warning: %s search coverage dropped %.1f%% -> %.1f%% (-%.1f points)\n",
				name, oc, cc, oc-cc)
		}
	}
}

// metricVal formats one metric value, "-" when the benchmark did not
// report that unit.
func metricVal(m map[string]float64, unit string) string {
	v, ok := m[unit]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// delta returns the percentage change from before to after, NaN when
// the metric is absent on either side.
func delta(before, after float64) float64 {
	if before <= 0 || after < 0 {
		return math.NaN()
	}
	return (after - before) / before * 100
}

// pct formats a delta percentage ("-" when unavailable).
func pct(d float64) string {
	if math.IsNaN(d) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", d)
}

// parseLine parses one benchmark result line of `go test -bench` output:
//
//	BenchmarkFigure4-8   3   812345678 ns/op   58.00 cloud-designs   ...
//
// The -N GOMAXPROCS suffix is stripped from the name. Non-benchmark
// lines report ok=false.
func parseLine(line string) (string, Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", Bench{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", Bench{}, false
	}
	b := Bench{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", Bench{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return name, b, true
}
