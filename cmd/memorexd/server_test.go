package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memorex"
	"memorex/internal/jobapi"
	"memorex/internal/obs"
)

// fastExplorerOpts shrinks the design spaces so daemon tests stay
// quick, mirroring the root package's test configuration.
func fastExplorerOpts() []memorex.ExplorerOption {
	return []memorex.ExplorerOption{
		memorex.WithAPEXConfig(memorex.APEXConfig{
			CacheSizes:  []int{2 << 10, 16 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 2,
		}),
		memorex.WithAssignCap(12),
		memorex.WithKeepPerArch(3),
		memorex.WithSampling(memorex.SamplingConfig{OnWindow: 500, OffRatio: 9}),
	}
}

// newTestDaemon boots a job server over a fast Explorer and an HTTP
// test listener, returning the server (for its internals), the client,
// and a cleanup-registered httptest server.
func newTestDaemon(t *testing.T, cfg serverConfig) (*server, *jobapi.Client) {
	t.Helper()
	router := obs.NewRouter()
	ex, err := memorex.NewExplorer(append(fastExplorerOpts(),
		memorex.WithObserver(memorex.NewObserver(router)))...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Explorer, cfg.Router = ex, router
	s := newServer(cfg)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		s.drain(30 * time.Second)
		ts.Close()
	})
	return s, &jobapi.Client{Base: ts.URL, HTTPClient: ts.Client()}
}

// submitWait submits a request and polls it to completion.
func submitWait(t *testing.T, c *jobapi.Client, req memorex.ExploreRequest) jobapi.Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	jb, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	jb, err = c.Wait(ctx, jb.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

// reportOf parses a done job's report and fails the test otherwise.
func reportOf(t *testing.T, jb jobapi.Job) *memorex.ReportJSON {
	t.Helper()
	if jb.State != jobapi.StateDone {
		t.Fatalf("job %s state = %s (%s), want done", jb.ID, jb.State, jb.Error)
	}
	rep, err := memorex.ReadReportJSON(bytes.NewReader(jb.Report))
	if err != nil {
		t.Fatalf("job %s report: %v", jb.ID, err)
	}
	return rep
}

// designsJSON serializes the report's designs section — the part that
// must be byte-identical across deduplicated runs (engine stats and
// metrics carry wall times and cumulative counters that legitimately
// differ).
func designsJSON(t *testing.T, rep *memorex.ReportJSON) string {
	t.Helper()
	stripped := *rep
	stripped.Engine, stripped.Metrics = nil, nil
	out, err := json.Marshal(stripped)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDaemonSequentialDedup is the warm-start contract over HTTP: the
// second identical submission reruns the pipeline entirely from the
// shared engine's caches — zero new behavior captures — and returns a
// byte-identical designs section.
func TestDaemonSequentialDedup(t *testing.T) {
	_, c := newTestDaemon(t, serverConfig{MaxRunning: 1})
	req := memorex.ExploreRequest{Benchmark: "vocoder"}

	rep1 := reportOf(t, submitWait(t, c, req))
	rep2 := reportOf(t, submitWait(t, c, req))

	cap1 := rep1.Metrics.Counters["engine/behavior_captures"]
	cap2 := rep2.Metrics.Counters["engine/behavior_captures"]
	if cap1 == 0 {
		t.Fatal("first run captured no behavior traces")
	}
	// The counter is cumulative over the daemon's lifetime: equal
	// values mean the second run captured nothing.
	if cap2 != cap1 {
		t.Fatalf("second run captured %d new behavior traces, want 0", cap2-cap1)
	}
	if d1, d2 := designsJSON(t, rep1), designsJSON(t, rep2); d1 != d2 {
		t.Error("sequential identical jobs produced different designs")
	}
}

// TestDaemonConcurrentDedup submits N identical jobs at once: they
// must all succeed with byte-identical designs, and single-flight must
// collapse their behavior captures to what ONE job costs (measured on
// an identically configured fresh daemon).
func TestDaemonConcurrentDedup(t *testing.T) {
	_, base := newTestDaemon(t, serverConfig{MaxRunning: 1})
	req := memorex.ExploreRequest{Benchmark: "vocoder"}
	baseline := reportOf(t, submitWait(t, base, req)).Metrics.Counters["engine/behavior_captures"]
	if baseline == 0 {
		t.Fatal("baseline run captured no behavior traces")
	}

	const n = 4
	_, c := newTestDaemon(t, serverConfig{MaxRunning: n, QueueCap: n})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ids := make([]string, n)
	for i := range ids {
		jb, err := c.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = jb.ID
	}
	reports := make([]*memorex.ReportJSON, n)
	var lastCaptures int64
	for i, id := range ids {
		jb, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = reportOf(t, jb)
		lastCaptures = reports[i].Metrics.Counters["engine/behavior_captures"]
	}
	for i := 1; i < n; i++ {
		if d0, di := designsJSON(t, reports[0]), designsJSON(t, reports[i]); d0 != di {
			t.Errorf("job %s designs differ from job %s", ids[i], ids[0])
		}
	}
	if lastCaptures != baseline {
		t.Errorf("%d concurrent identical jobs captured %d behavior traces, want the single-job %d",
			n, lastCaptures, baseline)
	}
}

// gate returns a TestGate that holds every job until release is closed
// (or the job is cancelled).
func gate(release chan struct{}) func(*job) error {
	return func(jb *job) error {
		select {
		case <-release:
			return nil
		case <-jb.ctx.Done():
			return jb.ctx.Err()
		}
	}
}

// TestDaemonQueueOverflow fills the runner and the queue, then expects
// the next submission to be rejected with 429 + Retry-After.
func TestDaemonQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	_, c := newTestDaemon(t, serverConfig{MaxRunning: 1, QueueCap: 1, TestGate: gate(release)})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := memorex.ExploreRequest{Benchmark: "vocoder"}

	jb1, err := c.Submit(ctx, req) // occupies the one runner
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, jb1.ID, jobapi.StateRunning)
	jb2, err := c.Submit(ctx, req) // occupies the one queue slot
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(ctx, req)
	var re *jobapi.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("overflow submission error = %v, want RetryError", err)
	}
	if re.RetryAfter <= 0 {
		t.Errorf("RetryError.RetryAfter = %s, want > 0", re.RetryAfter)
	}
	if !strings.Contains(re.Msg, "queue full") {
		t.Errorf("RetryError.Msg = %q, want queue-full message", re.Msg)
	}

	close(release)
	for _, id := range []string{jb1.ID, jb2.ID} {
		jb, err := c.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		reportOf(t, jb)
	}
}

// TestDaemonTenantQuota bounds one tenant's active jobs without
// penalizing another tenant.
func TestDaemonTenantQuota(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c := newTestDaemon(t, serverConfig{MaxRunning: 1, QueueCap: 8, TenantQuota: 1, TestGate: gate(release)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := memorex.ExploreRequest{Benchmark: "vocoder"}

	alice := &jobapi.Client{Base: c.Base, Tenant: "alice", HTTPClient: c.HTTPClient}
	bob := &jobapi.Client{Base: c.Base, Tenant: "bob", HTTPClient: c.HTTPClient}

	if _, err := alice.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	_, err := alice.Submit(ctx, req)
	var re *jobapi.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("over-quota submission error = %v, want RetryError", err)
	}
	if !strings.Contains(re.Msg, `"alice"`) {
		t.Errorf("RetryError.Msg = %q, want the tenant named", re.Msg)
	}
	if _, err := bob.Submit(ctx, req); err != nil {
		t.Errorf("bob's submission rejected despite alice's quota: %v", err)
	}
}

// waitState polls until the job reaches the given state.
func waitState(t *testing.T, c *jobapi.Client, id string, want jobapi.State) jobapi.Job {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		jb, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if jb.State == want {
			return jb
		}
		if jb.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s state = %s (%s), want %s", id, jb.State, jb.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonCancel cancels a queued and a running job: both must land
// in the cancelled state, the queued one immediately.
func TestDaemonCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, c := newTestDaemon(t, serverConfig{MaxRunning: 1, QueueCap: 2, TestGate: gate(release)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := memorex.ExploreRequest{Benchmark: "vocoder"}

	running, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, jobapi.StateRunning)
	queued, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	jb, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jb.State != jobapi.StateCancelled {
		t.Errorf("cancelled queued job state = %s, want cancelled immediately", jb.State)
	}

	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	jb, err = c.Wait(ctx, running.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if jb.State != jobapi.StateCancelled {
		t.Errorf("cancelled running job state = %s (%s), want cancelled", jb.State, jb.Error)
	}

	// Cancelling a terminal job is a no-op, not an error.
	jb, err = c.Cancel(ctx, queued.ID)
	if err != nil || jb.State != jobapi.StateCancelled {
		t.Errorf("re-cancel = (%v, %s), want idempotent cancelled", err, jb.State)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cancelled != 2 {
		t.Errorf("health.Cancelled = %d, want 2", h.Cancelled)
	}
}

// TestDaemonDrain exercises graceful shutdown: draining rejects new
// submissions with 503, cancels queued jobs, lets the running job
// finish, and reports a clean drain.
func TestDaemonDrain(t *testing.T) {
	release := make(chan struct{})
	s, c := newTestDaemon(t, serverConfig{MaxRunning: 1, QueueCap: 2, TestGate: gate(release)})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := memorex.ExploreRequest{Benchmark: "vocoder"}

	running, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, jobapi.StateRunning)
	queued, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan bool, 1)
	go func() { drained <- s.drain(time.Minute) }()

	// Draining: health flips and new submissions get 503.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, err = c.Submit(ctx, req)
	var se *jobapi.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %v, want 503", err)
	}

	// The queued job is cancelled rather than started.
	jb, err := c.Wait(ctx, queued.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if jb.State != jobapi.StateCancelled {
		t.Errorf("queued job state after drain = %s, want cancelled", jb.State)
	}

	// The running job finishes once released, and the drain is clean.
	close(release)
	if clean := <-drained; !clean {
		t.Error("drain reported timeout, want clean")
	}
	jb, err = c.Job(ctx, running.ID)
	if err != nil {
		t.Fatal(err)
	}
	reportOf(t, jb)

	// drain is idempotent.
	if !s.drain(time.Second) {
		t.Error("second drain not idempotent")
	}
}

// TestDaemonEvents checks per-job event isolation: each job's stream
// carries exactly its own run-level events — bracketed by run-start /
// run-end, every event stamped with the job's id — even though both
// jobs share one observer.
func TestDaemonEvents(t *testing.T) {
	_, c := newTestDaemon(t, serverConfig{MaxRunning: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	jb1 := submitWait(t, c, memorex.ExploreRequest{Benchmark: "vocoder"})
	jb2 := submitWait(t, c, memorex.ExploreRequest{Benchmark: "vocoder"})
	reportOf(t, jb1)
	reportOf(t, jb2)

	for _, jb := range []jobapi.Job{jb1, jb2} {
		var events []obs.Event
		err := c.Events(ctx, jb.ID, func(ev obs.Event) error {
			events = append(events, ev)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("job %s: empty event stream", jb.ID)
		}
		for _, ev := range events {
			if ev.Job != jb.ID {
				t.Fatalf("job %s stream carries event for %q", jb.ID, ev.Job)
			}
		}
		if events[0].Kind != obs.KindRunStart {
			t.Errorf("job %s stream starts with %s, want %s", jb.ID, events[0].Kind, obs.KindRunStart)
		}
		if last := events[len(events)-1]; last.Kind != obs.KindRunEnd {
			t.Errorf("job %s stream ends with %s, want %s", jb.ID, last.Kind, obs.KindRunEnd)
		}
		if jb.EventsDropped != 0 {
			t.Errorf("job %s dropped %d events", jb.ID, jb.EventsDropped)
		}
	}
}

// TestDaemonValidation exercises the 400/404 surface.
func TestDaemonValidation(t *testing.T) {
	_, c := newTestDaemon(t, serverConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"benchmark": `},
		{"unknown field", `{"benchmark": "vocoder", "bogus": 1}`},
		{"unknown benchmark", `{"benchmark": "quake3"}`},
		{"no trace source", `{}`},
		{"bad constraint", `{"benchmark": "vocoder", "constraints": [{"scenario": "speed", "limit": 1}]}`},
		{"negative keep", `{"benchmark": "vocoder", "keep_per_arch": -1}`},
		{"unknown strategy", `{"benchmark": "vocoder", "strategy": "tabu"}`},
		{"bad search budget", `{"benchmark": "vocoder", "strategy": "ga", "search": {"budget": -1}}`},
		{"bad search cooling", `{"benchmark": "vocoder", "strategy": "sa", "search": {"cooling": 1.5}}`},
		{"unknown field exact", `{"benchmark": "vocoder", "exact": true}`},
	}
	for _, tc := range cases {
		_, err := c.SubmitRaw(ctx, []byte(tc.body))
		var se *jobapi.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: error = %v, want 400", tc.name, err)
		}
	}

	if _, err := c.Job(ctx, "job-999999"); err == nil {
		t.Error("unknown job id fetch succeeded, want 404")
	} else {
		var se *jobapi.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("unknown job error = %v, want 404", err)
		}
	}
}

// TestDaemonHeuristicJob runs a GA exploration end-to-end over the
// job API: the submitted strategy and search config drive the run and
// the search provenance (strategy, seed, budget, evaluations) comes
// back in the report JSON.
func TestDaemonHeuristicJob(t *testing.T) {
	_, c := newTestDaemon(t, serverConfig{})
	jb := submitWait(t, c, memorex.ExploreRequest{
		Benchmark: "vocoder",
		Strategy:  "ga",
		Search:    &memorex.SearchConfig{Seed: 9, Budget: 60, Population: 8},
	})
	rep := reportOf(t, jb)
	if rep.Search == nil {
		t.Fatal("heuristic job report carries no search provenance")
	}
	if rep.Search.Strategy != "ga" || rep.Search.Seed != 9 || rep.Search.Budget != 60 {
		t.Errorf("provenance = %+v, want ga/9/60", rep.Search)
	}
	if rep.Search.Evals <= 0 || rep.Search.Evals > 60 {
		t.Errorf("evals %d outside (0, 60]", rep.Search.Evals)
	}
	if len(rep.Designs) == 0 {
		t.Error("heuristic job report has no designs")
	}
}

// TestDaemonJobRetention exercises the terminal-job janitor: finished
// jobs older than the retention window are evicted from status, list
// and the health summary, while queued and running jobs are immune no
// matter how old, and the janitor sweeps on its own.
func TestDaemonJobRetention(t *testing.T) {
	release := make(chan struct{})
	// A long retention keeps the background janitor out of this test's
	// way (TestDaemonJobRetentionJanitor covers it); eviction is driven
	// explicitly through evictExpired with shifted clocks.
	retention := time.Hour
	s, c := newTestDaemon(t, serverConfig{
		MaxRunning: 1, QueueCap: 2, JobRetention: retention, TestGate: gate(release),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req := memorex.ExploreRequest{Benchmark: "vocoder"}

	running, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, jobapi.StateRunning)
	queued, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Non-terminal jobs survive an eviction sweep arbitrarily far in
	// the future; only finished jobs age out.
	if n := s.evictExpired(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Fatalf("evictExpired removed %d live jobs, want 0", n)
	}
	if _, err := c.Job(ctx, running.ID); err != nil {
		t.Fatalf("running job evicted: %v", err)
	}
	if _, err := c.Job(ctx, queued.ID); err != nil {
		t.Fatalf("queued job evicted: %v", err)
	}

	// Finish both: cancel the queued one, open the gate for the
	// running one (and every later job in this test).
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	reportOf(t, waitState(t, c, running.ID, jobapi.StateDone))

	// A sweep dated before the jobs expire keeps them queryable.
	if n := s.evictExpired(time.Now()); n != 0 {
		t.Fatalf("early sweep evicted %d jobs, want 0", n)
	}

	// A sweep past the window evicts both terminal jobs everywhere:
	// status 404s, the list empties, health forgets the counts.
	if n := s.evictExpired(time.Now().Add(2 * retention)); n != 2 {
		t.Fatalf("expired sweep evicted %d jobs, want 2", n)
	}
	var se *jobapi.StatusError
	if _, err := c.Job(ctx, running.ID); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("evicted job fetch = %v, want 404", err)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("list holds %d jobs after eviction, want 0", len(jobs))
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Done != 0 || h.Cancelled != 0 || h.Queued != 0 || h.Running != 0 {
		t.Errorf("health after eviction = %+v, want all zero", h)
	}
}

// TestDaemonJobRetentionJanitor: with a short retention, the
// background janitor evicts a finished job on its own.
func TestDaemonJobRetentionJanitor(t *testing.T) {
	_, c := newTestDaemon(t, serverConfig{MaxRunning: 1, JobRetention: 100 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	done := submitWait(t, c, memorex.ExploreRequest{Benchmark: "vocoder"})
	reportOf(t, done)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := c.Job(ctx, done.ID)
		var se *jobapi.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the finished job")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
