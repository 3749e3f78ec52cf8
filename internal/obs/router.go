package obs

import "sync"

// Router is a Sink that fans the event stream back out to dynamic
// per-job subscriptions. It is the sink behind a job service's
// per-job event endpoints: one shared observer (engine + explorer)
// carries every event, job-scoped observers (Observer.ForJob) stamp
// Event.Job, and the router delivers each event to the subscribers of
// its job.
//
// Unscoped events (empty Job) describe shared-engine work — under
// single-flight deduplication one evaluation may be serving any number
// of jobs, so such events are attributable to no single job. They
// reach no subscription; the observer's other sinks (an -events file,
// say) still record them.
//
// Delivery never blocks the emitter: each subscription has a bounded
// buffer, and an event that finds a subscriber's buffer full is
// dropped for that subscriber (and counted) rather than stalling the
// exploration hot path.
type Router struct {
	mu     sync.Mutex
	subs   map[string][]*Subscription // job -> subscribers
	closed bool
}

// Subscription is one live per-job event feed handed out by Subscribe.
type Subscription struct {
	r       *Router
	job     string
	ch      chan Event
	dropped int64
	done    bool
}

// NewRouter returns an empty router; attach it to an observer as a
// sink and subscribe jobs as they are admitted.
func NewRouter() *Router {
	return &Router{subs: map[string][]*Subscription{}}
}

// Subscribe registers a feed for the given job's events with a buffer
// of buf events (minimum 1). The caller must Cancel the subscription
// when done; the returned channel is closed by Cancel (and by
// Router.Close) after the last buffered event.
func (r *Router) Subscribe(job string, buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{r: r, job: job, ch: make(chan Event, buf)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		sub.done = true
		close(sub.ch)
		return sub
	}
	r.subs[job] = append(r.subs[job], sub)
	return sub
}

// Events returns the subscription's feed. The channel is closed after
// Cancel (or Router.Close), once every event buffered before the
// cancellation has been received.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Job returns the job the subscription follows.
func (s *Subscription) Job() string { return s.job }

// Dropped returns how many events were dropped because the
// subscription's buffer was full.
func (s *Subscription) Dropped() int64 {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.dropped
}

// Cancel removes the subscription from the router and closes its
// channel. Events already buffered remain receivable; Cancel is
// idempotent.
func (s *Subscription) Cancel() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.closeLocked()
}

// closeLocked detaches and closes a subscription; the caller holds the
// router lock.
func (s *Subscription) closeLocked() {
	if s.done {
		return
	}
	s.done = true
	r := s.r
	r.subs[s.job] = removeSub(r.subs[s.job], s)
	if len(r.subs[s.job]) == 0 {
		delete(r.subs, s.job)
	}
	close(s.ch)
}

func removeSub(subs []*Subscription, s *Subscription) []*Subscription {
	for i, x := range subs {
		if x == s {
			return append(subs[:i], subs[i+1:]...)
		}
	}
	return subs
}

// Emit implements Sink: the event is delivered (by value) to every
// subscriber of its job; an unscoped event has none. Delivery is
// non-blocking; a full subscriber drops the event and counts it.
func (r *Router) Emit(ev *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for _, sub := range r.subs[ev.Job] {
		sub.deliverLocked(ev)
	}
}

// deliverLocked sends one event to the subscription without blocking;
// the caller holds the router lock.
func (s *Subscription) deliverLocked(ev *Event) {
	select {
	case s.ch <- *ev:
	default:
		s.dropped++
	}
}

// Close implements Sink: every live subscription is cancelled (its
// channel closed after the buffered events) and later Subscribe calls
// return already-closed feeds.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	var all []*Subscription
	for _, subs := range r.subs {
		all = append(all, subs...)
	}
	for _, sub := range all {
		sub.closeLocked()
	}
	return nil
}
