// Package cliutil factors the flag sets, logging setup and
// observability plumbing shared by the cmd/* binaries, so every
// command spells -bench/-scale/-seed, -workers,
// -cpuprofile/-memprofile and -events/-progress/-debug-addr the same
// way and gains new shared flags in one place.
package cliutil

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"memorex/internal/btcache"
	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/explore"
	"memorex/internal/jobapi"
	"memorex/internal/obs"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// Init configures the standard logger the way every command expects:
// no timestamps, the command name as prefix.
func Init(name string) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
}

// SignalContext returns a context cancelled by Ctrl-C, the standard
// way the exploration commands support interruption between
// design-point evaluations.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// WorkloadFlags is the shared benchmark-selection flag set:
// -bench, -scale, -seed, and optionally -trace for commands that also
// accept a pre-recorded trace file.
type WorkloadFlags struct {
	Bench     string
	Scale     int
	Seed      int64
	TracePath string
}

// Register installs -bench/-scale/-seed on fs.
func (w *WorkloadFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Bench, "bench", "compress", "benchmark: "+strings.Join(workload.Names(), ", "))
	fs.IntVar(&w.Scale, "scale", 1, "workload scale factor")
	fs.Int64Var(&w.Seed, "seed", 42, "workload seed")
}

// RegisterTraceFile additionally installs -trace, which overrides
// -bench with a pre-recorded MTR1/MTR2 trace file.
func (w *WorkloadFlags) RegisterTraceFile(fs *flag.FlagSet) {
	fs.StringVar(&w.TracePath, "trace", "", "trace file (MTR1/MTR2) instead of -bench")
}

// Config returns the workload configuration the flags select.
func (w *WorkloadFlags) Config() workload.Config {
	return workload.Config{Scale: w.Scale, Seed: w.Seed}
}

// Load returns the selected trace: the -trace file when given, else
// the generated -bench trace.
func (w *WorkloadFlags) Load() (*trace.Trace, error) {
	if w.TracePath != "" {
		f, err := os.Open(w.TracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	wl, err := workload.ByName(w.Bench)
	if err != nil {
		return nil, err
	}
	cfg, err := w.Config().Normalize()
	if err != nil {
		return nil, err
	}
	return wl.Generate(cfg), nil
}

// EvalFlags is the shared evaluation-control flag set: -workers.
type EvalFlags struct {
	Workers int
}

// Register installs -workers on fs.
func (e *EvalFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&e.Workers, "workers", 0, "evaluation worker pool size (0 = all CPUs)")
}

// SearchFlags is the shared exploration-driver flag set: -strategy
// selects the driver and -search-seed/-search-budget/-search-population
// tune the heuristic (GA/SA) drivers.
type SearchFlags struct {
	Strategy   string
	Seed       int64
	Budget     int
	Population int
}

// Register installs -strategy/-search-seed/-search-budget/
// -search-population on fs.
func (s *SearchFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Strategy, "strategy", "", "exploration driver: pruned (default), full, neighborhood, ga, sa")
	fs.Int64Var(&s.Seed, "search-seed", 0, "heuristic search PRNG seed (0 = the workload -seed)")
	fs.IntVar(&s.Budget, "search-budget", 0, "heuristic search evaluation budget (0 = default)")
	fs.IntVar(&s.Population, "search-population", 0, "GA population size / SA chain count (0 = default)")
}

// ParseStrategy resolves -strategy ("" = the pruned default) and
// rejects unknown names.
func (s *SearchFlags) ParseStrategy() (explore.Strategy, error) {
	if s.Strategy == "" {
		return explore.Pruned, nil
	}
	return explore.ParseStrategy(s.Strategy)
}

// Config returns the heuristic-search configuration the flags select.
// An unset -search-seed inherits the workload seed, so `-seed 42` alone
// already pins the whole run; the remaining zero fields mean the
// core.DefaultSearchConfig values.
func (s *SearchFlags) Config(workloadSeed int64) core.SearchConfig {
	seed := s.Seed
	if seed == 0 {
		seed = workloadSeed
	}
	return core.SearchConfig{Seed: seed, Budget: s.Budget, Population: s.Population}
}

// CacheFlags is the shared persistent behavior-trace cache flag set:
// -trace-cache selects the cache directory (empty = no cache) and
// -trace-cache-limit bounds its on-disk size.
type CacheFlags struct {
	Dir   string
	Limit string
}

// Register installs -trace-cache/-trace-cache-limit on fs.
func (c *CacheFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Dir, "trace-cache", "", "persist Phase A behavior traces in this directory across runs (empty = off)")
	fs.StringVar(&c.Limit, "trace-cache-limit", "", "trace cache size bound, e.g. 64M or 2G (empty = unbounded)")
}

// LimitBytes parses -trace-cache-limit (0 when unset).
func (c *CacheFlags) LimitBytes() (int64, error) {
	if c.Limit == "" {
		return 0, nil
	}
	n, err := ParseSize(c.Limit)
	if err != nil {
		return 0, fmt.Errorf("trace-cache-limit: %w", err)
	}
	return n, nil
}

// Open opens the cache the flags select, counting in reg (nil: the
// cache's own registry). Without -trace-cache it returns (nil, nil) —
// the nil *btcache.Cache is the disabled cache everywhere it is
// accepted.
func (c *CacheFlags) Open(reg *obs.Registry) (*btcache.Cache, error) {
	if c.Dir == "" {
		return nil, nil
	}
	limit, err := c.LimitBytes()
	if err != nil {
		return nil, err
	}
	opts := []btcache.Option{btcache.WithMetrics(reg)}
	if limit > 0 {
		opts = append(opts, btcache.WithLimit(limit))
	}
	return btcache.Open(c.Dir, opts...)
}

// ParseSize parses a human-friendly byte size: a plain integer or one
// with a K/M/G/T suffix (binary multiples, case-insensitive, optional
// trailing B as in "64MB").
func ParseSize(s string) (int64, error) {
	t := strings.TrimSuffix(strings.ToUpper(strings.TrimSpace(s)), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	case strings.HasSuffix(t, "T"):
		mult, t = 1<<40, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n * mult, nil
}

// ProfileFlags is the shared pprof flag set: -cpuprofile and
// -memprofile.
type ProfileFlags struct {
	CPU string
	Mem string
}

// Register installs -cpuprofile/-memprofile on fs.
func (p *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins the requested profiles and returns the function that
// finishes them; defer it from main. With no profile flags set it is a
// cheap no-op.
func (p *ProfileFlags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}
	}, nil
}

// ObsFlags is the shared observability flag set: -events streams the
// structured exploration events as JSONL, -progress paints a one-line
// terminal status, -debug-addr serves expvar (including the metrics
// registry) and pprof over HTTP while the command runs.
type ObsFlags struct {
	EventsPath string
	Progress   bool
	DebugAddr  string
}

// Register installs -events/-progress/-debug-addr on fs.
func (o *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.EventsPath, "events", "", "stream exploration events as JSONL to this file (- = stderr)")
	fs.BoolVar(&o.Progress, "progress", false, "paint a live progress line on stderr")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve expvar metrics and pprof on this HTTP address (e.g. localhost:6060)")
}

// Observer builds the observer the flags request (plus any extra
// sinks the command supplies, e.g. a job-event router) and returns it
// with its cleanup function (always non-nil; defer it from main).
// With no event flags set and no extra sinks the observer is nil —
// the disabled observer.
func (o *ObsFlags) Observer(extra ...obs.Sink) (*obs.Observer, func() error, error) {
	sinks := append([]obs.Sink(nil), extra...)
	var files []*os.File
	if o.EventsPath == "-" {
		sinks = append(sinks, obs.NewJSONL(os.Stderr))
	} else if o.EventsPath != "" {
		f, err := os.Create(o.EventsPath)
		if err != nil {
			return nil, func() error { return nil }, fmt.Errorf("events: %w", err)
		}
		files = append(files, f)
		sinks = append(sinks, obs.NewJSONL(f))
	}
	if o.Progress {
		sinks = append(sinks, obs.NewProgress(os.Stderr, 0))
	}
	observer := obs.NewObserver(sinks...)
	cleanup := func() error {
		err := observer.Close()
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return observer, cleanup, nil
}

// ServeDebug starts the -debug-addr HTTP server (expvar + pprof + a
// /metrics JSON endpoint over the given registry snapshot function).
// It is a no-op when the flag is unset. The server runs until the
// process exits.
func (o *ObsFlags) ServeDebug(metrics func() obs.Snapshot) {
	if o.DebugAddr == "" {
		return
	}
	if metrics != nil {
		expvar.Publish("memorex_metrics", expvar.Func(func() interface{} {
			return metrics()
		}))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(metrics())
		})
	}
	go func() {
		if err := http.ListenAndServe(o.DebugAddr, nil); err != nil {
			log.Printf("debug-addr: %v", err)
		}
	}()
	log.Printf("serving expvar and pprof on http://%s/debug/pprof/ (metrics at /metrics)", o.DebugAddr)
}

// ServerFlags is the shared memorexd-client flag set: -server selects
// the daemon base URL and -tenant the quota bucket submissions are
// accounted to.
type ServerFlags struct {
	Server string
	Tenant string
}

// Register installs -server/-tenant on fs.
func (s *ServerFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Server, "server", "http://localhost:8344", "memorexd base URL")
	fs.StringVar(&s.Tenant, "tenant", "", "tenant name sent with every request (empty = the daemon default)")
}

// Client returns a job-API client over the flags.
func (s *ServerFlags) Client() *jobapi.Client {
	return &jobapi.Client{Base: s.Server, Tenant: s.Tenant}
}

// LoadLibrary reads a JSON connectivity IP library, or returns the
// built-in one for an empty path.
func LoadLibrary(path string) ([]connect.Component, error) {
	if path == "" {
		return connect.Library(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return connect.ReadLibrary(f)
}
