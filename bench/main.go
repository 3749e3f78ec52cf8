// Command bench is the repository benchmark: four seeded closed-loop
// workloads over MemorEx's public entry points, their end-to-end
// metrics, a traced pass that times each layer, output checks against
// the one-phase reference simulator and golden fronts, and a mode that
// compares two sets of saved runs. Build and run it with bench/run.sh;
// bench/README.md documents the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runDeadline bounds a whole run, so a hung op cannot keep the
// benchmark from exiting.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 15, "how long the timed loop runs (at least 100 ops run regardless)")
	traceMode := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
	root := fs.String("root", ".", "repository root")
	memorexd := fs.String("memorexd", "", "memorexd binary the daemon workload boots")
	compare := fs.Bool("compare", false, "compare two directories of saved run outputs: -compare BASE NEW")
	golden := fs.Bool("write-golden", false, "record this run's fronts as the golden fronts of its seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		return compareDirs(*root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if !slices.Contains(workloadNames, *workloadName) || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "bench: need -workload %v, -seconds ≥ 1 and -trace 0 or 1\n", workloadNames)
		return 2
	}
	cfg := &runConfig{
		workload:    *workloadName,
		seed:        *seed,
		seconds:     time.Duration(*seconds) * time.Second,
		trace:       *traceMode == 1,
		root:        *root,
		memorexd:    *memorexd,
		workers:     runtime.NumCPU(),
		writeGolden: *golden,
	}
	out, code, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	enc, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return code
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute performs one run, prints its human-readable summary and
// returns the result line with the exit code it implies.
func execute(cfg *runConfig, stdout io.Writer) (*result, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	spec, err := readBenchSpec(cfg.root)
	if err != nil {
		return nil, 0, err
	}
	if !spec.hasWorkload(cfg.workload) {
		return nil, 0, fmt.Errorf("BENCHMARK.json lists no workload %s", cfg.workload)
	}
	var golden goldenFile
	if cfg.seed == defaultSeed && !cfg.writeGolden {
		g, err := readGolden(goldenPath(cfg.root, cfg.seed))
		if err != nil {
			return nil, 0, err
		}
		golden = g
	}
	var res *runResult
	if cfg.workload == wDaemonJobs {
		res, err = runDaemon(ctx, cfg, golden)
	} else {
		res, err = runInProcess(ctx, cfg, golden)
	}
	if err != nil {
		return nil, 0, err
	}
	if cfg.writeGolden {
		if res.failed > 0 {
			return nil, 0, fmt.Errorf("not writing goldens from a run with %d failed ops", res.failed)
		}
		if err := writeGolden(goldenPath(cfg.root, cfg.seed), cfg.workload, res.fronts); err != nil {
			return nil, 0, err
		}
	}

	defs, values := spec.PerLayer, res.layers
	if !cfg.trace {
		defs = spec.EndToEnd
		if values, err = endToEnd(res); err != nil {
			return nil, 0, err
		}
	}
	out := &result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d seconds=%d\n", cfg.workload, cfg.seed, btoi(cfg.trace), int(cfg.seconds/time.Second))
	fmt.Fprintf(stdout, "# ops attempted=%d failed=%d latency samples=%d set-ups=%d\n", res.attempted, res.failed, len(res.lat), len(res.setups))
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "# %-28s %14.4f %s\n", d.Name, v, d.Unit)
	}
	code := 0
	if !out.Correct {
		code = 1
	}
	return out, code, nil
}

// defaultSeed is the seed whose fronts are pinned in bench/golden.
const defaultSeed = 1

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
