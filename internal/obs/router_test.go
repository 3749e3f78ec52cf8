package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRouterPerJobRouting: job-stamped events reach only their job's
// subscribers; unscoped events reach no job feed, while the observer's
// other sinks still record them.
func TestRouterPerJobRouting(t *testing.T) {
	r := NewRouter()
	ring := NewRing(16)
	o := NewObserver(r, ring)

	subA := r.Subscribe("job-a", 16)
	subB := r.Subscribe("job-b", 16)

	o.ForJob("job-a").RunStart("compress", 100)
	o.ForJob("job-b").RunStart("li", 200)
	o.PhaseStart("conex/estimate") // unscoped: shared-engine work

	o.ForJob("job-a").RunEnd("compress", time.Millisecond, nil)
	subA.Cancel()
	subB.Cancel()

	collect := func(s *Subscription) []Event {
		var evs []Event
		for ev := range s.Events() {
			evs = append(evs, ev)
		}
		return evs
	}

	evsA := collect(subA)
	if len(evsA) != 2 || evsA[0].Kind != KindRunStart || evsA[1].Kind != KindRunEnd {
		t.Fatalf("job-a subscriber saw %+v, want its run-start and run-end", evsA)
	}
	for _, ev := range evsA {
		if ev.Job != "job-a" {
			t.Fatalf("job-a event not stamped: %+v", ev)
		}
	}

	evsB := collect(subB)
	if len(evsB) != 1 || evsB[0].Benchmark != "li" {
		t.Fatalf("job-b subscriber saw %+v, want only its own run-start", evsB)
	}

	all := ring.Events()
	if len(all) != 4 || all[2].Kind != KindPhaseStart || all[2].Job != "" {
		t.Fatalf("ring sink saw %+v, want all 4 events with the unscoped phase start third", all)
	}
}

// TestRouterOverflowDrops: a full subscription drops events without
// blocking the emitter, and counts them.
func TestRouterOverflowDrops(t *testing.T) {
	r := NewRouter()
	o := NewObserver(r)
	sub := r.Subscribe("j", 2)

	scoped := o.ForJob("j")
	for i := 0; i < 5; i++ {
		scoped.PhaseStart("p")
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	sub.Cancel()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("received %d buffered events, want 2", n)
	}
}

// TestRouterClose: closing the router cancels every subscription and
// later subscriptions are born closed.
func TestRouterClose(t *testing.T) {
	r := NewRouter()
	sub := r.Subscribe("j", 4)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("subscription channel still open after router close")
	}
	late := r.Subscribe("k", 4)
	if _, ok := <-late.Events(); ok {
		t.Fatal("post-close subscription not born closed")
	}
	// Emitting into a closed router is a no-op.
	r.Emit(&Event{Kind: KindPhaseStart, Job: "j"})
}

// TestObserverForJob: scoped observers share the parent's dense
// sequence counter and sinks, stamp their job, and the nil/empty cases
// collapse to the receiver.
func TestObserverForJob(t *testing.T) {
	ring := NewRing(16)
	o := NewObserver(ring)

	if o.ForJob("") != o {
		t.Fatal("ForJob(\"\") should return the receiver")
	}
	var nilObs *Observer
	if nilObs.ForJob("x") != nil {
		t.Fatal("ForJob on nil observer should stay nil")
	}
	if nilObs.Job() != "" {
		t.Fatal("Job() on nil observer should be empty")
	}

	a := o.ForJob("a")
	b := o.ForJob("b")
	if a.Job() != "a" || b.Job() != "b" {
		t.Fatalf("Job() = %q/%q, want a/b", a.Job(), b.Job())
	}
	a.PhaseStart("p1")
	b.PhaseStart("p2")
	o.PhaseStart("p3")
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("ring saw %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want dense shared ordering", i, ev.Seq)
		}
	}
	if evs[0].Job != "a" || evs[1].Job != "b" || evs[2].Job != "" {
		t.Fatalf("job stamps wrong: %+v", evs)
	}
}

// TestObserverCloseIdempotent: Close is safe under concurrent and
// repeated use, and events after Close are dropped rather than sent to
// closed sinks.
func TestObserverCloseIdempotent(t *testing.T) {
	ring := NewRing(16)
	o := NewObserver(ring)
	o.PhaseStart("before")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := o.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()

	o.PhaseStart("after")
	if n := ring.Total(); n != 1 {
		t.Fatalf("ring saw %d events, want only the pre-close one", n)
	}
}
