package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"memorex"
	"memorex/internal/jobapi"
	"memorex/internal/obs"
)

// serverConfig is the daemon's admission and execution configuration.
type serverConfig struct {
	// Explorer is the shared exploration handle every job runs on: one
	// engine, one memo cache, one optional persistent trace cache —
	// identical jobs from any tenant dedup onto the same work.
	Explorer *memorex.Explorer
	// Router is the per-job event fan-out; it must be one of the sinks
	// of the Explorer's observer.
	Router *obs.Router
	// Library is the connectivity IP library of jobs whose request
	// names none (nil = the built-in library).
	Library []memorex.ConnComponent
	// QueueCap bounds the number of admitted-but-not-finished jobs
	// waiting to run; submissions beyond it are rejected with 429.
	QueueCap int
	// MaxRunning bounds how many jobs execute concurrently.
	MaxRunning int
	// TenantQuota bounds each tenant's active (queued + running) jobs;
	// 0 disables per-tenant quotas.
	TenantQuota int
	// JobRetention bounds how long terminal jobs (done, failed,
	// cancelled) stay queryable after finishing; a janitor evicts
	// older ones from the job table. 0 disables eviction. The report
	// JSON the client fetched remains the durable artifact — the job
	// table is a bounded window, not an archive.
	JobRetention time.Duration
	// TestGate, when set, runs before each job's exploration; tests use
	// it to hold jobs "running" while they probe queue and cancel
	// behavior. A non-nil error (typically jb.ctx.Err()) fails the job
	// with it.
	TestGate func(jb *job) error
}

// job is one admitted exploration job.
type job struct {
	id     string
	tenant string
	req    memorex.ExploreRequest

	cancel context.CancelFunc
	ctx    context.Context
	// sub is the job's event log in the Router, read by the events
	// stream and the snapshot's EventsDropped.
	sub  *obs.Subscription
	done chan struct{}

	mu       sync.Mutex
	state    jobapi.State
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	report   []byte
}

// server multiplexes exploration jobs onto the shared Explorer.
type server struct {
	cfg serverConfig

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string       // submission order
	active   map[string]int // tenant -> queued + running jobs
	byState  map[jobapi.State]int
	queue    chan *job
	draining bool
	seq      int

	runners     sync.WaitGroup
	janitorStop chan struct{}
}

// newServer builds the job server and starts its runner pool.
func newServer(cfg serverConfig) *server {
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.MaxRunning < 1 {
		cfg.MaxRunning = 2
	}
	s := &server{
		cfg:     cfg,
		jobs:    map[string]*job{},
		active:  map[string]int{},
		byState: map[jobapi.State]int{},
		queue:   make(chan *job, cfg.QueueCap),
	}
	s.runners.Add(cfg.MaxRunning)
	for i := 0; i < cfg.MaxRunning; i++ {
		go s.runner()
	}
	if cfg.JobRetention > 0 {
		s.janitorStop = make(chan struct{})
		go s.janitor()
	}
	return s
}

// janitor evicts expired terminal jobs on a period derived from the
// retention window, until drain stops it.
func (s *server) janitor() {
	tick := time.NewTicker(janitorInterval(s.cfg.JobRetention))
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-tick.C:
			if n := s.evictExpired(now); n > 0 {
				log.Printf("janitor: evicted %d expired jobs (retention %s)", n, s.cfg.JobRetention)
			}
		}
	}
}

// janitorInterval scales the eviction sweep to the retention window,
// clamped so short test retentions still sweep promptly and long ones
// do not wake the daemon needlessly.
func janitorInterval(retention time.Duration) time.Duration {
	iv := retention / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > time.Minute {
		iv = time.Minute
	}
	return iv
}

// evictExpired removes terminal jobs that finished more than the
// retention window before now, keeping list, lookup and health
// consistent. It returns the number evicted.
func (s *server) evictExpired(now time.Time) int {
	if s.cfg.JobRetention <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.JobRetention)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	keep := s.order[:0]
	for _, id := range s.order {
		jb := s.jobs[id]
		jb.mu.Lock()
		state, finished := jb.state, jb.finished
		jb.mu.Unlock()
		terminal := state == jobapi.StateDone || state == jobapi.StateFailed || state == jobapi.StateCancelled
		if terminal && !finished.IsZero() && finished.Before(cutoff) {
			delete(s.jobs, id)
			s.byState[state]--
			n++
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
	return n
}

// routes returns the daemon's HTTP handler.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+jobapi.PathJobs, s.handleSubmit)
	mux.HandleFunc("GET "+jobapi.PathJobs, s.handleList)
	mux.HandleFunc("GET "+jobapi.PathJobs+"/{id}", s.handleStatus)
	mux.HandleFunc("GET "+jobapi.PathJobs+"/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE "+jobapi.PathJobs+"/{id}", s.handleCancel)
	mux.HandleFunc("GET "+jobapi.PathHealth, s.handleHealth)
	return mux
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, jobapi.Error{Error: fmt.Sprintf(format, args...)})
}

// rejectBusy writes the 429 admission rejection with a Retry-After
// hint sized to the daemon's current load.
func (s *server) rejectBusy(w http.ResponseWriter, format string, args ...interface{}) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, format, args...)
}

// maxRequestBody bounds submission bodies (custom libraries are a few
// KB; nothing legitimate approaches this).
const maxRequestBody = 8 << 20

// handleSubmit admits one exploration job: decode, validate, check the
// tenant quota and the queue bound, then enqueue.
func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req memorex.ExploreRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get(jobapi.TenantHeader)
	if tenant == "" {
		tenant = jobapi.DefaultTenant
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	if q := s.cfg.TenantQuota; q > 0 && s.active[tenant] >= q {
		s.mu.Unlock()
		s.rejectBusy(w, "tenant %q has %d active jobs (quota %d)", tenant, q, q)
		return
	}

	s.seq++
	jb := &job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		tenant:  tenant,
		req:     req,
		state:   jobapi.StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	// The job runs under its own context: submission is asynchronous,
	// so the HTTP request's context must not cancel the exploration.
	jb.ctx, jb.cancel = context.WithCancel(context.Background())
	// The daemon assigns the job identity; a client-set JobID would
	// collide across tenants.
	jb.req.JobID = jb.id
	if jb.req.Library == nil {
		jb.req.Library = s.cfg.Library
	}

	select {
	case s.queue <- jb:
	default:
		s.mu.Unlock()
		s.rejectBusy(w, "job queue full (%d queued)", s.cfg.QueueCap)
		return
	}
	jb.sub = s.cfg.Router.Subscribe(jb.id)
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	s.active[tenant]++
	s.byState[jobapi.StateQueued]++
	s.mu.Unlock()

	w.Header().Set("Location", jobapi.PathJobs+"/"+jb.id)
	writeJSON(w, http.StatusAccepted, jb.snapshot())
}

// snapshot renders the job's current wire representation.
func (jb *job) snapshot() jobapi.Job {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	out := jobapi.Job{
		ID:            jb.id,
		Tenant:        jb.tenant,
		State:         jb.state,
		Created:       jb.created,
		Error:         jb.errMsg,
		EventsDropped: jb.sub.Dropped(),
	}
	if !jb.started.IsZero() {
		t := jb.started
		out.Started = &t
	}
	if !jb.finished.IsZero() {
		t := jb.finished
		out.Finished = &t
	}
	if jb.report != nil {
		out.Report = json.RawMessage(jb.report)
	}
	return out
}

// runner executes queued jobs until the queue is closed (drain).
func (s *server) runner() {
	defer s.runners.Done()
	for jb := range s.queue {
		s.runJob(jb)
	}
}

// runJob moves one job through running to a terminal state.
func (s *server) runJob(jb *job) {
	if !s.startJob(jb) {
		return // cancelled while queued
	}
	var rep *memorex.Report
	var err error
	if s.cfg.TestGate != nil {
		err = s.cfg.TestGate(jb)
	}
	if err == nil {
		rep, err = s.cfg.Explorer.Do(jb.ctx, jb.req)
	}
	state, errMsg, report := outcome(jb, rep, err)
	s.finish(jb, jobapi.StateRunning, state, errMsg, report)
}

// startJob transitions queued -> running, unless the job was cancelled
// while it waited.
func (s *server) startJob(jb *job) bool {
	jb.mu.Lock()
	if jb.state != jobapi.StateQueued {
		jb.mu.Unlock()
		return false
	}
	if jb.ctx.Err() != nil {
		jb.mu.Unlock()
		s.finish(jb, jobapi.StateQueued, jobapi.StateCancelled, "cancelled", nil)
		return false
	}
	jb.state = jobapi.StateRunning
	jb.started = time.Now()
	jb.mu.Unlock()

	s.mu.Lock()
	s.byState[jobapi.StateQueued]--
	s.byState[jobapi.StateRunning]++
	s.mu.Unlock()
	return true
}

// outcome maps a run's result to the job's terminal state, error
// message and report JSON.
func outcome(jb *job, rep *memorex.Report, err error) (jobapi.State, string, []byte) {
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || jb.ctx.Err() != nil):
		return jobapi.StateCancelled, "cancelled", nil
	case err != nil:
		return jobapi.StateFailed, err.Error(), nil
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return jobapi.StateFailed, fmt.Sprintf("serializing report: %v", err), nil
	}
	return jobapi.StateDone, "", buf.Bytes()
}

// finish moves a job from state from to a terminal state: it records
// the outcome, releases the tenant's quota slot, ends the job's event
// log and logs the outcome. It does nothing when the job is no longer
// in state from, so a queued job that a cancel and a runner both try
// to finish is finished once.
func (s *server) finish(jb *job, from, state jobapi.State, errMsg string, report []byte) {
	jb.mu.Lock()
	if jb.state != from {
		jb.mu.Unlock()
		return
	}
	jb.state = state
	jb.errMsg = errMsg
	jb.report = report
	jb.finished = time.Now()
	jb.mu.Unlock()

	s.mu.Lock()
	s.byState[from]--
	s.byState[state]++
	s.active[jb.tenant]--
	if s.active[jb.tenant] == 0 {
		delete(s.active, jb.tenant)
	}
	s.mu.Unlock()

	jb.cancel()
	// All of the run's events were emitted synchronously before Do
	// returned, so the log is complete.
	jb.sub.Cancel()
	close(jb.done)
	log.Printf("%s: %s -> %s (tenant %s)", jb.id, from, state, jb.tenant)
}

// lookup resolves the {id} path component.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return jb
}

// handleStatus serves one job's status (with the report once done).
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if jb := s.lookup(w, r); jb != nil {
		writeJSON(w, http.StatusOK, jb.snapshot())
	}
}

// handleList serves all jobs, newest first.
func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	out := jobapi.JobList{Jobs: []jobapi.Job{}}
	for _, id := range ids {
		s.mu.Lock()
		jb := s.jobs[id]
		s.mu.Unlock()
		if jb == nil {
			continue // evicted between the two lock windows
		}
		snap := jb.snapshot()
		snap.Report = nil // list stays light; fetch the job for the report
		out.Jobs = append(out.Jobs, snap)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancel cancels a queued or running job.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	s.cancelJob(jb)
	writeJSON(w, http.StatusAccepted, jb.snapshot())
}

// cancelJob cancels one job: a queued job finishes as cancelled
// immediately (the runner will skip it), a running one is interrupted
// through its context and finishes when the engine yields. Terminal
// jobs are left untouched.
func (s *server) cancelJob(jb *job) {
	jb.mu.Lock()
	state := jb.state
	jb.mu.Unlock()
	switch state {
	case jobapi.StateQueued:
		// Finish it now so status and quota reflect the cancellation
		// without waiting for a runner to reach it; startJob's state
		// check makes the later dequeue a no-op.
		jb.cancel()
		s.finish(jb, jobapi.StateQueued, jobapi.StateCancelled, "cancelled", nil)
	case jobapi.StateRunning:
		jb.cancel()
	}
}

// handleEvents streams the job's event log as JSONL: everything
// routed so far, then live events as they arrive, until the job's
// log ends or the client disconnects.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(w, r)
	if jb == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for i := 0; ; {
		evs, ended, grew := jb.sub.Since(i)
		i += len(evs)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ended {
			return
		}
		select {
		case <-grew:
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealth serves the liveness and admission summary.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := jobapi.Health{
		Status:      "ok",
		Queued:      s.byState[jobapi.StateQueued],
		Running:     s.byState[jobapi.StateRunning],
		Done:        s.byState[jobapi.StateDone],
		Failed:      s.byState[jobapi.StateFailed],
		Cancelled:   s.byState[jobapi.StateCancelled],
		QueueCap:    s.cfg.QueueCap,
		TenantQuota: s.cfg.TenantQuota,
	}
	if s.draining {
		h.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// drain gracefully shuts the job layer down: new submissions are
// rejected, queued jobs are cancelled, running jobs finish (bounded by
// timeout), then the shared Explorer is closed. It reports whether
// every runner finished in time, and is idempotent.
func (s *server) drain(timeout time.Duration) bool {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var queued []*job
	if !already {
		for _, id := range s.order {
			jb := s.jobs[id]
			jb.mu.Lock()
			if jb.state == jobapi.StateQueued {
				queued = append(queued, jb)
			}
			jb.mu.Unlock()
		}
		close(s.queue)
		if s.janitorStop != nil {
			close(s.janitorStop)
		}
	}
	s.mu.Unlock()
	if already {
		return true
	}

	// Queued jobs are not in flight: cancel rather than start them.
	for _, jb := range queued {
		s.cancelJob(jb)
	}

	finished := make(chan struct{})
	go func() {
		s.runners.Wait()
		close(finished)
	}()
	clean := true
	select {
	case <-finished:
	case <-time.After(timeout):
		log.Printf("drain: timeout after %s, abandoning in-flight jobs", timeout)
		clean = false
	}
	if err := s.cfg.Explorer.Close(); err != nil {
		log.Printf("drain: closing explorer: %v", err)
	}
	return clean
}
