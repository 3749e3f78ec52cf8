package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"memorex/internal/jobapi"
	"memorex/internal/obs"
	"memorex/internal/sampling"
	"memorex/internal/workload"
)

// The daemon workload: daemonClients closed-loop clients submit distinct
// jobs to one memorexd, which serves the whole run.
const (
	daemonClients = 2
	// maxJobs guards the host's memory. The daemon's engine maps never
	// evict, so every distinct job stays in its heap (about 9.5 MB each);
	// at the reference speed a run ends on --seconds or on minOps jobs
	// well before this.
	maxJobs = 150
	// checkedJobs is how many jobs, the first of the run, the output
	// checks re-run in-process; the traced pass serves exactly these.
	// Re-running every job would double the run.
	checkedJobs = 12
	jobTimeout  = 60 * time.Second
	// quietDaemonNS is the most CPU time memorexd may use while a
	// calibration kernel sample runs (about 7 ms of CPU over two
	// workers) for the sample to count.
	quietDaemonNS = 300_000
	// traceCacheLimit is small enough that the run's write-through
	// captures overflow it, so eviction runs too.
	traceCacheLimit = "64M"
)

// daemonBenches is the benchmark rotation of the jobs: two of three are
// compress, so the median job falls inside compress's latency cluster
// rather than on the edge between two equal clusters.
var daemonBenches = []string{"compress", "vocoder", "compress"}

// Span names of a daemon job, measured from the client's timestamps and
// the job's Created/Started/Finished fields.
const (
	spanJob       = "job"
	spanSubmit    = "jobapi.submit"
	spanQueue     = "memorexd.queue"
	spanRun       = "memorexd.run"
	spanEventTail = "jobapi.event_tail"
	spanFetch     = "jobapi.fetch"
)

// daemonSpec is job n of the daemon workload: every job is a distinct
// request, the full-length trace of its own workload seed, explored the
// way pruned-cold explores a slice but with one memory architecture
// kept (daemonAPEX).
func daemonSpec(seed int64, n int) spec {
	bench := daemonBenches[n%len(daemonBenches)]
	return spec{
		key:         specKey(n, bench, ""),
		bench:       bench,
		wl:          workload.Config{Scale: 1, Seed: derive(seed, 4, int64(n))},
		apex:        daemonAPEX,
		sampling:    sampling.Config{OnWindow: 1000, OffRatio: 9},
		keep:        6,
		assignCap:   48,
		constraints: allConstraints,
	}
}

// daemon is one running memorexd process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	debug    string
	client   *jobapi.Client
	http     *http.Client
	cacheDir string
	logPath  string
	exited   chan struct{}
	exitErr  error
}

// freeAddr returns a loopback address with a port nobody listens on.
// The daemon's debug server does not report the port it bound, so the
// benchmark picks both ports itself.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon boots memorexd with a fresh trace cache under dir and
// waits until /healthz answers; the returned duration is exec to
// healthy.
func startDaemon(cfg *runConfig, dir string) (*daemon, time.Duration, error) {
	apiAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	dbgAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d := &daemon{
		base:     "http://" + apiAddr,
		debug:    "http://" + dbgAddr,
		http:     &http.Client{Timeout: jobTimeout},
		cacheDir: filepath.Join(dir, "trace-cache"),
		logPath:  filepath.Join(dir, "memorexd.log"),
		exited:   make(chan struct{}),
	}
	d.client = &jobapi.Client{Base: d.base, HTTPClient: d.http}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(cfg.memorexd,
		"-addr", apiAddr, "-debug-addr", dbgAddr,
		"-max-running", "2", "-workers", strconv.Itoa(cfg.workers),
		"-trace-cache", d.cacheDir, "-trace-cache-limit", traceCacheLimit)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("starting memorexd: %w", err)
	}
	go func() {
		d.exitErr = d.cmd.Wait()
		logFile.Close()
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	for deadline := start.Add(30 * time.Second); ; {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("memorexd exited while booting (%v); log: %s", d.exitErr, d.logPath)
		default:
		}
		if resp, err := probe.Get(d.base + jobapi.PathHealth); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("memorexd not healthy after 30s; log: %s", d.logPath)
		}
		time.Sleep(200 * time.Microsecond) // boot takes milliseconds; poll finely
	}
}

// stop drains the daemon with SIGTERM; anything but exit status 0
// within a minute is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling memorexd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("memorexd did not drain within a minute; log: %s", d.logPath)
	}
	if d.exitErr != nil {
		return fmt.Errorf("memorexd drain: %v; log: %s", d.exitErr, d.logPath)
	}
	return nil
}

// kill stops the daemon unconditionally and waits for it to exit.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) getJSON(ctx context.Context, url string, out interface{}) error {
	body, err := d.get(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

func (d *daemon) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// procSample is a point-in-time reading of the daemon process.
type procSample struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
}

// sample reads the daemon's CPU time from /proc and its allocation and
// GC totals from expvar's memstats.
func (d *daemon) sample(ctx context.Context) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks of
	// 1/100 s on Linux.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	s.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	var vars struct {
		Memstats struct {
			TotalAlloc   uint64
			NumGC        uint32
			PauseTotalNs uint64
		} `json:"memstats"`
	}
	if err := d.getJSON(ctx, d.debug+"/debug/vars", &vars); err != nil {
		return s, err
	}
	s.totalAlloc, s.numGC, s.pauseNS = vars.Memstats.TotalAlloc, vars.Memstats.NumGC, vars.Memstats.PauseTotalNs
	return s, nil
}

// liveHeap forces a GC in the daemon through the pprof heap endpoint
// and returns the heap in use afterwards.
func (d *daemon) liveHeap(ctx context.Context) (uint64, error) {
	body, err := d.get(ctx, d.debug+"/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("no HeapAlloc in the heap profile")
}

// ranNS is the CPU time all of the daemon's threads have run, in
// nanoseconds, from each thread's /proc schedstat.
func (d *daemon) ranNS() (int64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for memorexd: %v", err)
	}
	var sum int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", p)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", p, err)
		}
		sum += ns
	}
	return sum, nil
}

// peakRSS is the daemon's high-water resident set size in bytes.
func (d *daemon) peakRSS() (uint64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// jobRec is one job as its client saw it.
type jobRec struct {
	n                                    int // index of the job in the run
	submit, submitted, streamed, fetched time.Time
	created, started, finished           time.Time
	events                               int
	dropped                              int64
	report                               json.RawMessage
	err                                  error
}

// job runs one closed-loop op: submit, stream the job's events until
// the feed ends, fetch the job with its report.
func (d *daemon) job(ctx context.Context, n int, s spec) (r jobRec) {
	r.n = n
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	r.submit = time.Now()
	defer func() { r.fetched = time.Now() }()
	jb, err := d.client.Submit(ctx, s.request())
	r.submitted = time.Now()
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	err = d.client.Events(ctx, jb.ID, func(obs.Event) error { r.events++; return nil })
	r.streamed = time.Now()
	if err != nil {
		r.err = fmt.Errorf("events of %s: %w", jb.ID, err)
		return r
	}
	if jb, err = d.client.Job(ctx, jb.ID); err != nil {
		r.err = fmt.Errorf("fetching %s: %w", jb.ID, err)
		return r
	}
	if jb.State != jobapi.StateDone || jb.Started == nil || jb.Finished == nil {
		r.err = fmt.Errorf("%s ended %s: %s", jb.ID, jb.State, jb.Error)
		return r
	}
	r.created, r.started, r.finished = jb.Created, *jb.Started, *jb.Finished
	r.dropped, r.report = jb.EventsDropped, jb.Report
	return r
}

// runJobs runs jobs 0, 1, 2, … of the seed's schedule in rounds: each
// of the clients runs one job, and the round ends when all have. Rounds
// start while more(n) allows the round's first job n. After each round
// it calls between (when non-nil), while the daemon has no job. It
// returns the jobs in order and the summed wall time of the rounds.
func (d *daemon) runJobs(ctx context.Context, seed int64, clients int, more func(n int) bool, between func()) ([]jobRec, time.Duration) {
	var recs []jobRec
	var wall time.Duration
	for n := 0; more(n); n += clients {
		round := make([]jobRec, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := range round {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				round[c] = d.job(ctx, n+c, daemonSpec(seed, n+c))
			}(c)
		}
		wg.Wait()
		wall += time.Since(start)
		recs = append(recs, round...)
		if between != nil {
			between()
		}
	}
	return recs, wall
}

// bootDaemon starts memorexd setupRuns times under dir and drains all
// but the last boot, which it returns. Each boot's exec-to-healthy time
// is a set-up of the run.
func bootDaemon(cfg *runConfig, dir string, res *runResult) (*daemon, error) {
	for r := 0; ; r++ {
		d, boot, err := startDaemon(cfg, filepath.Join(dir, fmt.Sprintf("boot-%d", r)))
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, boot.Seconds())
		if r == setupRuns-1 {
			return d, nil
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
	}
}

// canonicalReport is a job report without its engine and metrics
// blocks, which legitimately differ between runs of one request.
func canonicalReport(raw []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parsing report: %w", err)
	}
	delete(m, "engine")
	delete(m, "metrics")
	return json.Marshal(m)
}

// observeJobs records a run's jobs: latency and failures. A job whose
// report does not parse has failed too.
func observeJobs(res *runResult, recs []jobRec) {
	for _, r := range recs {
		res.attempted++
		res.lat = append(res.lat, ms(r.fetched.Sub(r.submit)))
		err := r.err
		if err == nil {
			_, err = canonicalReport(r.report)
		}
		if err != nil {
			res.fail("job %d: %v", r.n, err)
		}
	}
}

// runDaemon runs the daemon workload: two closed-loop clients submit
// distinct jobs to one memorexd, in rounds of one job each, until
// --seconds have passed and at least minOps jobs ran (at most maxJobs),
// then the output checks. The calibration kernel runs after each round,
// as it runs after each in-process op.
func runDaemon(ctx context.Context, cfg *runConfig, golden goldenFile) (*runResult, error) {
	if cfg.memorexd == "" {
		return nil, fmt.Errorf("daemon-jobs needs -memorexd (bench/run.sh builds it)")
	}
	dir, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &runResult{}
	if cfg.trace {
		return traceDaemon(ctx, cfg, dir, golden, res)
	}
	k := newKernel(cfg.workers)
	d, err := bootDaemon(cfg, dir, res)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	heap0, err := d.liveHeap(ctx)
	if err != nil {
		return nil, err
	}
	pre, err := d.sample(ctx)
	if err != nil {
		return nil, err
	}
	// A kernel sample counts only when the daemon stayed idle while it
	// ran: a garbage collection still running in the daemon after a
	// round would slow the kernel by an amount the program decides.
	var busy int
	calibrate := func() {
		ran0, err0 := d.ranNS()
		t := k.timeMS()
		ran1, err1 := d.ranNS()
		if err0 != nil || err1 != nil || ran1-ran0 > quietDaemonNS {
			busy++
			return
		}
		res.kernelMS = append(res.kernelMS, t)
	}
	start := time.Now()
	recs, wall := d.runJobs(ctx, cfg.seed, daemonClients,
		func(n int) bool { return n < maxJobs && cfg.more(n, start) }, calibrate)
	res.wall = wall
	res.note("calibration: %d kernel samples dropped because memorexd ran meanwhile", busy)
	post, err := d.sample(ctx)
	if err != nil {
		return nil, err
	}
	heap1, err := d.liveHeap(ctx)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	res.cpu = post.cpu - pre.cpu
	res.alloc = post.totalAlloc - pre.totalAlloc
	res.retainedMB = (float64(heap1) - float64(heap0)) / 1e6 / float64(len(recs))
	observeJobs(res, recs)
	verifyDaemon(ctx, cfg, recs[:min(checkedJobs, len(recs))], golden, res, nil, nil)
	return res, nil
}

// verifyDaemon runs the request of each given job in-process, stage by
// stage, and requires the daemon's report to match it (engine and
// metrics blocks aside), its front to match the reference simulator,
// and, for the default seed, the golden front. With a tracer the stage
// spans and probes of these runs feed the per-layer metrics.
func verifyDaemon(ctx context.Context, cfg *runConfig, recs []jobRec, golden goldenFile, res *runResult, tr *tracer, ps *probeStats) []*stagedRun {
	res.fronts = map[string][]byte{}
	var runs []*stagedRun
	for _, r := range recs {
		if r.err != nil {
			continue // already counted as failed
		}
		s := daemonSpec(cfg.seed, r.n)
		op := checkedJobs + 1 + r.n // span op ids after the jobs' own
		run, err := staged(ctx, &s, cfg.workers, tr, op)
		if err != nil {
			res.fail("%s: in-process reference run: %v", s.key, err)
			continue
		}
		runs = append(runs, run)
		enc := encodeFront(run.rep.ConEx.CostPerfFront)
		res.fronts[s.key] = enc
		got, err := canonicalReport(r.report)
		var want []byte
		if err == nil {
			want, err = canonicalReport(run.json)
		}
		switch {
		case err != nil:
			res.fail("%s: %v", s.key, err)
		case !bytes.Equal(got, want):
			res.fail("%s: daemon report differs from the in-process run", s.key)
		default:
			err = verifyFront(run.rep.Trace, run.rep.ConEx.CostPerfFront)
			if err == nil && golden != nil {
				err = golden.check(cfg.workload, s.key, enc)
			}
			if err != nil {
				res.fail("%s: %v", s.key, err)
			}
		}
		if tr != nil {
			if err := probe(tr, op, &s, run.rep, nil, ps); err != nil {
				res.fail("%s: %v", s.key, err)
			}
		}
	}
	return runs
}

// servedPass is what serveCheckedJobs saw of one daemon.
type servedPass struct {
	recs      []jobRec
	pre, post procSample
	metrics   obs.Snapshot
	peakRSS   uint64
	cacheDir  string
}

// serveCheckedJobs boots a daemon under dir, serves the first
// checkedJobs jobs from a single client, so the daemon's counters repeat
// exactly on a seed, scrapes its counters and drains it.
func serveCheckedJobs(ctx context.Context, cfg *runConfig, dir string) (*servedPass, error) {
	d, _, err := startDaemon(cfg, dir)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	p := &servedPass{cacheDir: d.cacheDir}
	if p.pre, err = d.sample(ctx); err != nil {
		return nil, err
	}
	p.recs, _ = d.runJobs(ctx, cfg.seed, 1, func(n int) bool { return n < checkedJobs }, nil)
	if p.post, err = d.sample(ctx); err != nil {
		return nil, err
	}
	if err := d.getJSON(ctx, d.debug+"/metrics", &p.metrics); err != nil {
		return nil, err
	}
	if p.peakRSS, err = d.peakRSS(); err != nil {
		return nil, err
	}
	return p, d.stop()
}

// traceDaemon is the daemon's traced pass. Two daemons serve the checked
// jobs from one client each: the first untraced, the second with each
// job's spans recorded from client timestamps and the job's lifecycle
// fields. After the drain the trace cache is probed, and each job's
// request runs in-process stage by stage, which gives the layer times
// and checks the daemon's reports.
func traceDaemon(ctx context.Context, cfg *runConfig, dir string, golden goldenFile, res *runResult) (*runResult, error) {
	plain, err := serveCheckedJobs(ctx, cfg, filepath.Join(dir, "untraced"))
	if err != nil {
		return nil, err
	}
	observeJobs(res, plain.recs)
	untraced := make([]float64, len(plain.recs))
	for i, r := range plain.recs {
		untraced[i] = ms(r.fetched.Sub(r.submit))
	}

	tr := newTracer()
	p, err := serveCheckedJobs(ctx, cfg, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	observeJobs(res, p.recs)
	var wall, run, queue time.Duration
	var events, reportBytes int
	var dropped int64
	for _, r := range p.recs {
		if r.err != nil {
			continue
		}
		op := r.n + 1
		root := tr.add(spanJob, op, 0, r.submit, r.fetched)
		tr.add(spanSubmit, op, root, r.submit, r.submitted)
		tr.add(spanQueue, op, root, r.created, r.started)
		tr.add(spanRun, op, root, r.started, r.finished)
		tr.add(spanEventTail, op, root, r.finished, r.streamed)
		tr.add(spanFetch, op, root, r.streamed, r.fetched)
		wall += r.fetched.Sub(r.submit)
		run += r.finished.Sub(r.started)
		queue += r.started.Sub(r.created)
		events += r.events
		dropped += r.dropped
		reportBytes += len(r.report)
	}
	entries, diskBytes, err := cacheProbe(tr, p.cacheDir)
	if err != nil {
		res.fail("btcache probe: %v", err)
	}

	var ps probeStats
	refs := verifyDaemon(ctx, cfg, p.recs, golden, res, tr, &ps)
	jobs := len(tr.rootMS(spanJob))
	if len(refs) == 0 || jobs == 0 {
		return nil, fmt.Errorf("no daemon job or reference run completed")
	}
	acc := newLayerAcc()
	for _, r := range refs {
		acc.addRun(r)
	}
	acc.snap = p.metrics // the engine counters are the daemon's own
	l := acc.metrics(tr, cfg.workers, jobs, ms(run)/float64(jobs), &ps)
	l["workload.generate_ms"] = tr.totalMS(spanWorkload) / float64(len(refs))
	l["btcache.mb_on_disk"] = float64(diskBytes) / 1e6
	l["btcache.get_ms_per_entry"] = perEntry(tr.totalMS(probeCacheGet), entries)
	l["report.json_kb"] = float64(reportBytes) / 1e3 / float64(jobs)
	l["daemon.service_pct"] = 100 * float64(wall-run) / float64(wall)
	l["daemon.queue_wait_pct"] = 100 * float64(queue) / float64(wall)
	l["daemon.events_per_job"] = float64(events) / float64(jobs)
	l["daemon.events_dropped"] = float64(dropped)
	l["runtime.gc_per_op"] = float64(p.post.numGC-p.pre.numGC) / float64(jobs)
	l["runtime.gc_pause_ms_per_op"] = ms(time.Duration(p.post.pauseNS-p.pre.pauseNS)) / float64(jobs)
	l["process.peak_rss_mb"] = float64(p.peakRSS) / 1e6
	l["bench.attributed_pct"] = tr.attributedPct(spanJob)
	l["bench.trace_overhead_pct"] = 100 * (median(tr.rootMS(spanJob)) - median(untraced)) / median(untraced)
	res.layers = l
	return res, writeSpans(cfg, tr, res)
}
