// Command memorexd is the MemorEx exploration daemon: a long-running
// HTTP service that multiplexes exploration jobs from many clients
// onto ONE shared memorex.Explorer. Because every job runs through the
// same evaluation engine, identical work deduplicates across tenants —
// concurrent identical jobs single-flight onto one evaluation, repeat
// submissions warm-start from the shared memoization cache and (with
// -trace-cache) from the persistent behavior-trace cache.
//
// Usage:
//
//	memorexd [-addr localhost:8344] [-workers N]
//	         [-queue N] [-max-running N] [-tenant-quota N]
//	         [-job-retention D] [-drain-timeout D]
//	         [-lib FILE] [-trace-cache DIR] [-trace-cache-limit SIZE]
//	         [-events FILE] [-progress] [-debug-addr ADDR]
//
// The job API is documented in internal/jobapi: POST a
// memorex.ExploreRequest JSON body to /v1/jobs, poll the job id for
// the report, stream its events, DELETE to cancel. Admission is
// bounded: -queue caps waiting jobs and -tenant-quota caps each
// tenant's active jobs (both rejecting with 429 + Retry-After), and
// -max-running bounds concurrently executing jobs.
//
// A job's event stream carries only the events stamped with its id.
// Engine-level events (phase brackets and evaluations of the shared
// engine, which may serve several jobs at once) belong to no job; they
// reach -events FILE and -progress but no job's stream.
//
// Finished jobs (done, failed or cancelled) stay queryable for
// -job-retention after completing, then a janitor evicts them; the
// report JSON the client fetched is the durable artifact. Set
// -job-retention 0 to keep every job for the daemon's lifetime.
//
// SIGINT/SIGTERM drains gracefully: new submissions get 503, queued
// jobs are cancelled, running jobs finish (bounded by -drain-timeout),
// then the daemon exits 0.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"memorex"
	"memorex/internal/cliutil"
	"memorex/internal/jobapi"
	"memorex/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	cliutil.Init("memorexd")
	var ev cliutil.EvalFlags
	var ob cliutil.ObsFlags
	var cf cliutil.CacheFlags
	ev.Register(flag.CommandLine)
	ob.Register(flag.CommandLine)
	cf.Register(flag.CommandLine)
	addr := flag.String("addr", "localhost:8344", "HTTP listen address of the job API")
	queueCap := flag.Int("queue", 64, "max jobs waiting to run; submissions beyond it get 429")
	maxRunning := flag.Int("max-running", 2, "max concurrently executing jobs")
	tenantQuota := flag.Int("tenant-quota", 0, "max active (queued+running) jobs per tenant (0 = unlimited)")
	jobRetention := flag.Duration("job-retention", time.Hour, "how long finished jobs stay queryable before eviction (0 = forever)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max time to wait for running jobs on shutdown")
	libPath := flag.String("lib", "", "JSON connectivity IP library of jobs that name none (default: built-in)")
	flag.Parse()

	lib, err := cliutil.LoadLibrary(*libPath)
	if err != nil {
		log.Print(err)
		return 1
	}

	// The router is one sink of the shared observer: job-stamped events
	// fan back out to the per-job event streams.
	router := obs.NewRouter()
	observer, closeObs, err := ob.Observer(router)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer func() {
		if err := closeObs(); err != nil {
			log.Printf("events: %v", err)
		}
	}()

	exOpts := []memorex.ExplorerOption{
		memorex.WithWorkers(ev.Workers),
		memorex.WithObserver(observer),
	}
	if cf.Dir != "" {
		limit, err := cf.LimitBytes()
		if err != nil {
			log.Print(err)
			return 1
		}
		exOpts = append(exOpts, memorex.WithTraceCache(cf.Dir), memorex.WithTraceCacheLimit(limit))
	}
	ex, err := memorex.NewExplorer(exOpts...)
	if err != nil {
		log.Print(err)
		return 1
	}
	ob.ServeDebug(ex.MetricsSnapshot)

	srv := newServer(serverConfig{
		Explorer:     ex,
		Router:       router,
		Library:      lib,
		QueueCap:     *queueCap,
		MaxRunning:   *maxRunning,
		TenantQuota:  *tenantQuota,
		JobRetention: *jobRetention,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.routes()}
	log.Printf("serving the job API on http://%s%s (queue %d, max-running %d)",
		ln.Addr(), jobapi.PathJobs, *queueCap, *maxRunning)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Printf("serve: %v", err)
		srv.drain(*drainTimeout)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Print("shutdown signal: draining (new submissions get 503)")

	// Finish the in-flight jobs first — their event streams end when
	// the jobs do — then close the listener and idle connections.
	clean := srv.drain(*drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if !clean {
		return 1
	}
	log.Print("drained cleanly")
	return 0
}
