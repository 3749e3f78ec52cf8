package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one saved run output: the standard output of one
// invocation, whose header line names the run and whose last line is
// the result.
type savedRun struct {
	path     string
	workload string
	seed     int64
	trace    int
	res      result
}

// readRuns loads every *.out file of dir as a saved run.
func readRuns(dir string) ([]savedRun, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := savedRun{path: path, trace: -1}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if strings.HasPrefix(line, "# workload=") {
				fmt.Sscanf(line, "# workload=%s seed=%d trace=%d", &r.workload, &r.seed, &r.trace)
			}
			if line != "" {
				last = line
			}
		}
		if r.workload == "" || r.trace < 0 {
			return nil, fmt.Errorf("%s: no '# workload=... seed=... trace=...' header", path)
		}
		if err := json.Unmarshal([]byte(last), &r.res); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// workloads, and the names and units of the metrics a run reports. The
// unit "count" marks integers the program counts, which repeat exactly
// on a seed; compare mode requires that of them.
type benchSpec struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func readBenchSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no end_to_end or no per_layer metrics")
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func selectRuns(runs []savedRun, workload string, trace int) []savedRun {
	var out []savedRun
	for _, r := range runs {
		if r.workload == workload && r.trace == trace {
			out = append(out, r)
		}
	}
	return out
}

// minPairs is the fewest pairs of runs a comparison accepts: with ten,
// "nine tenths of the pairs" allows one loss.
const minPairs = 10

// setupMetric is gated on its median change alone. A set-up of a few
// hundred milliseconds (the daemon's: a few milliseconds) spreads wider
// than its bound between runs of the same code, so an unresolved
// verdict on it is printed but does not fail the comparison.
const setupMetric = "setup_s"

// runPair is a base run and a new run of one workload and seed.
type runPair struct{ base, next savedRun }

// pairRuns pairs the runs of two sets by seed; several runs of one seed
// pair in file-name order. Runs left without a partner are returned
// apart.
func pairRuns(base, next []savedRun) (pairs []runPair, unpaired []savedRun) {
	byPath := func(runs []savedRun) []savedRun {
		s := append([]savedRun(nil), runs...)
		sort.Slice(s, func(i, j int) bool { return s[i].path < s[j].path })
		return s
	}
	next = byPath(next)
	taken := make([]bool, len(next))
	for _, b := range byPath(base) {
		j := -1
		for i, n := range next {
			if !taken[i] && n.seed == b.seed {
				j = i
				break
			}
		}
		if j < 0 {
			unpaired = append(unpaired, b)
			continue
		}
		taken[j] = true
		pairs = append(pairs, runPair{b, next[j]})
	}
	for i, n := range next {
		if !taken[i] {
			unpaired = append(unpaired, n)
		}
	}
	return pairs, unpaired
}

// pairValues returns one metric of each pair's base and new run.
func pairValues(pairs []runPair, name string) (base, next []float64, err error) {
	for _, p := range pairs {
		bm, ok1 := p.base.res.Metrics[name]
		nm, ok2 := p.next.res.Metrics[name]
		if !ok1 || !ok2 {
			return nil, nil, fmt.Errorf("missing from %s or %s", p.base.path, p.next.path)
		}
		base, next = append(base, bm.Value), append(next, nm.Value)
	}
	return base, next, nil
}

// compareDirs compares the runs saved in baseDir with those in newDir:
// per workload and end-to-end metric, the median and quartiles of each
// set and the verdict over the pairs of runs of one seed; for the
// traced runs, every count must repeat exactly within a set on each
// seed, and counts that differ between the sets are listed. It exits 1
// on a worse verdict, an unresolved one on any metric but setup_s, an
// unpaired or failed run, or a count that does not repeat.
func compareDirs(root, baseDir, newDir string, stdout, stderr io.Writer) int {
	spec, err := readBenchSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	base, err := readRuns(baseDir)
	if err == nil {
		var next []savedRun
		if next, err = readRuns(newDir); err == nil {
			if compareRuns(spec, base, next, stdout) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 1
}

// compareRuns prints the comparison and reports whether it passed.
func compareRuns(spec *benchSpec, base, next []savedRun, w io.Writer) bool {
	ok := true
	for _, set := range [][]savedRun{base, next} {
		for _, r := range set {
			if !r.res.Correct || r.res.Failed > 0 {
				fmt.Fprintf(w, "FAILED RUN %s: %d of %d ops failed\n", r.path, r.res.Failed, r.res.Attempted)
				ok = false
			}
		}
	}

	fmt.Fprintf(w, "%-17s %-17s %-32s %-32s %8s %6s %5s  %s\n", "workload", "metric", "base median [q1, q3]",
		"new median [q1, q3]", "change", "spread", "wins", "verdict")
	for _, wl := range spec.Workloads {
		pairs, unpaired := pairRuns(selectRuns(base, wl.Name, 0), selectRuns(next, wl.Name, 0))
		for _, u := range unpaired {
			fmt.Fprintf(w, "UNPAIRED RUN %s: the other set has no run of seed %d to pair it with\n", u.path, u.seed)
			ok = false
		}
		if len(pairs) == 0 {
			continue
		}
		if len(pairs) < minPairs {
			fmt.Fprintf(w, "%-17s %d pairs of runs; a comparison needs at least %d\n", wl.Name, len(pairs), minPairs)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, nv, err := pairValues(pairs, m.Name)
			if err != nil {
				fmt.Fprintf(w, "%-17s %-17s %v\n", wl.Name, m.Name, err)
				ok = false
				continue
			}
			c := verdict(bv, nv, m.Better == "lower", m.Bound)
			if c.verdict == verdictWorse || (c.verdict == verdictUnresolved && m.Name != setupMetric) {
				ok = false
			}
			b1, bm, b3 := quartiles(bv)
			n1, nm, n3 := quartiles(nv)
			fmt.Fprintf(w, "%-17s %-17s %-32s %-32s %+7.1f%% %5.1f%% %2d/%-2d  %s (bound %.0f%%)\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bm, b1, b3), fmt.Sprintf("%.4g [%.4g, %.4g]", nm, n1, n3),
				100*c.change, 100*c.ratioSpread, c.wins, len(pairs), c.verdict, 100*m.Bound)
		}
	}

	var counts []string
	for _, m := range spec.PerLayer {
		if m.Unit == "count" {
			counts = append(counts, m.Name)
		}
	}
	for i, set := range [][]savedRun{base, next} {
		name := []string{"base", "new"}[i]
		groups := groupBySeed(set)
		for _, key := range sortedKeys(groups) {
			g := groups[key]
			for _, c := range counts {
				first := g[0].res.Metrics[c].Value
				for _, r := range g[1:] {
					if r.res.Metrics[c].Value != first {
						fmt.Fprintf(w, "COUNT DOES NOT REPEAT in %s set: %s seed %d %s: %v in %s, %v in %s\n",
							name, g[0].workload, g[0].seed, c, first, g[0].path, r.res.Metrics[c].Value, r.path)
						ok = false
					}
				}
			}
		}
	}
	baseGroups, nextGroups := groupBySeed(base), groupBySeed(next)
	for _, key := range sortedKeys(baseGroups) {
		g := baseGroups[key]
		ng, found := nextGroups[key]
		if !found {
			continue
		}
		for _, c := range counts {
			if bv, nv := g[0].res.Metrics[c].Value, ng[0].res.Metrics[c].Value; bv != nv {
				fmt.Fprintf(w, "count changed: %s seed %d %s: %v -> %v\n", g[0].workload, g[0].seed, c, bv, nv)
			}
		}
	}
	return ok
}

// groupBySeed groups traced runs by workload and seed, in a stable order.
func groupBySeed(runs []savedRun) map[string][]savedRun {
	out := map[string][]savedRun{}
	for _, r := range runs {
		if r.trace == 1 {
			k := fmt.Sprintf("%s/%d", r.workload, r.seed)
			out[k] = append(out[k], r)
		}
	}
	for _, g := range out {
		sort.Slice(g, func(i, j int) bool { return g[i].path < g[j].path })
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
