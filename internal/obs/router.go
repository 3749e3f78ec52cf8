package obs

import "sync"

// Router is a Sink that keeps one event log per subscribed job. It is
// the sink behind a job service's per-job event endpoints: one shared
// observer (engine + explorer) carries every event, job-scoped
// observers (Observer.ForJob) stamp Event.Job, and the router appends
// each event to the log of its job.
//
// Unscoped events (empty Job) describe shared-engine work — under
// single-flight deduplication one evaluation may be serving any number
// of jobs, so such events are attributable to no single job. They
// reach no log; the observer's other sinks (an -events file, say)
// still record them.
//
// Appending never blocks the emitter: each log holds at most
// MaxJobEvents events, and an event past the cap is dropped (and
// counted) rather than stalling the exploration hot path.
type Router struct {
	mu     sync.Mutex
	subs   map[string]*Subscription // job -> live log
	closed bool
}

// MaxJobEvents caps one job's event log; a real job emits a few
// hundred events.
const MaxJobEvents = 4096

// Subscription is one job's append-only event log, handed out by
// Subscribe. Readers take the events from an index on with Since.
type Subscription struct {
	r       *Router
	job     string
	events  []Event
	dropped int64
	done    bool
	// grew is the channel Since hands out, closed when the log next
	// grows or ends; nil while no reader holds one, so a log nobody
	// waits on allocates none.
	grew chan struct{}
}

// NewRouter returns an empty router; attach it to an observer as a
// sink and subscribe jobs as they are admitted.
func NewRouter() *Router {
	return &Router{subs: map[string]*Subscription{}}
}

// Subscribe starts the event log of the given job, which must have no
// live log. The caller must Cancel the subscription once the job emits
// no more events; the log stays readable after that.
func (r *Router) Subscribe(job string) *Subscription {
	sub := &Subscription{r: r, job: job}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		sub.endLocked()
		return sub
	}
	r.subs[job] = sub
	return sub
}

// Job returns the job the subscription follows.
func (s *Subscription) Job() string { return s.job }

// Since returns the logged events from index i on, whether the log has
// ended (so no event will follow them), and a channel that is closed
// when the log next grows or ends. The returned events are never
// modified afterwards.
func (s *Subscription) Since(i int) (evs []Event, ended bool, grew <-chan struct{}) {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.grew == nil {
		s.grew = make(chan struct{})
	}
	n := len(s.events)
	return s.events[min(i, n):n:n], s.done, s.grew
}

// Dropped returns how many events were dropped because the log was
// full.
func (s *Subscription) Dropped() int64 {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.dropped
}

// Cancel ends the log: the router appends no more events to it.
// Cancel is idempotent.
func (s *Subscription) Cancel() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.done {
		return
	}
	if s.r.subs[s.job] == s {
		delete(s.r.subs, s.job)
	}
	s.endLocked()
}

// endLocked marks the log ended and wakes its readers; the caller
// holds the router lock.
func (s *Subscription) endLocked() {
	s.done = true
	if s.grew == nil {
		s.grew = make(chan struct{})
	}
	close(s.grew)
}

// Emit implements Sink: the event is appended (by value) to the log of
// its job, or dropped and counted when the log is full; an unscoped
// event has no log.
func (r *Router) Emit(ev *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.subs[ev.Job]
	if s == nil {
		return
	}
	if len(s.events) >= MaxJobEvents {
		s.dropped++
		return
	}
	s.events = append(s.events, *ev)
	if s.grew != nil {
		close(s.grew)
		s.grew = nil
	}
}

// Close implements Sink: every live log is ended and later Subscribe
// calls return logs that are already ended.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	for job, s := range r.subs {
		s.endLocked()
		delete(r.subs, job)
	}
	return nil
}
