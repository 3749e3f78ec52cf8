package obs

import (
	"sync"
	"testing"
	"time"
)

// TestRouterPerJobRouting: job-stamped events reach only their job's
// log; unscoped events reach no job log, while the observer's other
// sinks still record them.
func TestRouterPerJobRouting(t *testing.T) {
	r := NewRouter()
	ring := NewRing(16)
	o := NewObserver(r, ring)

	subA := r.Subscribe("job-a")
	subB := r.Subscribe("job-b")

	o.ForJob("job-a").RunStart("compress", 100)
	o.ForJob("job-b").RunStart("li", 200)
	o.PhaseStart("conex/estimate") // unscoped: shared-engine work

	o.ForJob("job-a").RunEnd("compress", time.Millisecond, nil)
	subA.Cancel()
	subB.Cancel()
	o.ForJob("job-a").PhaseStart("late") // after Cancel: not logged

	evsA, ended, _ := subA.Since(0)
	if !ended || len(evsA) != 2 || evsA[0].Kind != KindRunStart || evsA[1].Kind != KindRunEnd {
		t.Fatalf("job-a log = %+v (ended %v), want its run-start and run-end, ended", evsA, ended)
	}
	for _, ev := range evsA {
		if ev.Job != "job-a" {
			t.Fatalf("job-a event not stamped: %+v", ev)
		}
	}
	if tail, _, _ := subA.Since(1); len(tail) != 1 || tail[0].Kind != KindRunEnd {
		t.Fatalf("job-a log from index 1 = %+v, want its run-end", tail)
	}

	evsB, _, _ := subB.Since(0)
	if len(evsB) != 1 || evsB[0].Benchmark != "li" {
		t.Fatalf("job-b log = %+v, want only its own run-start", evsB)
	}

	all := ring.Events()
	if len(all) != 5 || all[2].Kind != KindPhaseStart || all[2].Job != "" {
		t.Fatalf("ring sink saw %+v, want all 5 events with the unscoped phase start third", all)
	}
}

// TestRouterOverflowDrops: a job's log keeps its first MaxJobEvents
// events and counts the rest as dropped, without blocking the emitter.
func TestRouterOverflowDrops(t *testing.T) {
	r := NewRouter()
	o := NewObserver(r)
	sub := r.Subscribe("j")

	scoped := o.ForJob("j")
	for i := 0; i < 5000; i++ {
		scoped.PhaseStart("p")
	}
	sub.Cancel()
	evs, _, _ := sub.Since(0)
	if len(evs) != MaxJobEvents || MaxJobEvents != 4096 {
		t.Fatalf("log holds %d events, want the first %d (4096)", len(evs), MaxJobEvents)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("log[%d] has seq %d, want the first events in order", i, ev.Seq)
		}
	}
	if got := sub.Dropped(); got != 904 {
		t.Fatalf("Dropped() = %d, want 904", got)
	}
}

// TestRouterSinceWakes: the channel Since returns is closed by the
// next event of the job and by Cancel, so a reader waits on it instead
// of polling.
func TestRouterSinceWakes(t *testing.T) {
	r := NewRouter()
	o := NewObserver(r).ForJob("j")
	sub := r.Subscribe("j")

	evs, ended, grew := sub.Since(0)
	if len(evs) != 0 || ended {
		t.Fatalf("fresh log = %+v (ended %v), want empty and live", evs, ended)
	}
	select {
	case <-grew:
		t.Fatal("wake channel closed before any event")
	default:
	}
	o.PhaseStart("p")
	<-grew
	evs, ended, grew = sub.Since(0)
	if len(evs) != 1 || ended {
		t.Fatalf("log after one event = %+v (ended %v)", evs, ended)
	}
	sub.Cancel()
	<-grew
	if _, ended, _ := sub.Since(1); !ended {
		t.Fatal("log not ended after Cancel")
	}
}

// TestRouterConcurrentReaders: readers that follow a job's log while
// it is written, the way the daemon's events handler does, each read
// every event once and in order, then see the log end.
func TestRouterConcurrentReaders(t *testing.T) {
	const n = 500
	r := NewRouter()
	o := NewObserver(r).ForJob("j")
	sub := r.Subscribe("j")

	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seqs []uint64
			for i := 0; ; {
				evs, ended, grew := sub.Since(i)
				i += len(evs)
				for _, ev := range evs {
					seqs = append(seqs, ev.Seq)
				}
				if ended {
					break
				}
				<-grew
			}
			if len(seqs) != n {
				t.Errorf("reader saw %d events, want %d", len(seqs), n)
				return
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Errorf("reader's event %d has seq %d", i, seq)
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		o.PhaseStart("p")
	}
	sub.Cancel()
	wg.Wait()
}

// TestRouterClose: closing the router ends every log, later
// subscriptions are born ended, and emitting into a closed router is a
// no-op.
func TestRouterClose(t *testing.T) {
	r := NewRouter()
	sub := r.Subscribe("j")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ended, _ := sub.Since(0); !ended {
		t.Fatal("log still live after router close")
	}
	late := r.Subscribe("k")
	if _, ended, grew := late.Since(0); !ended {
		t.Fatal("post-close subscription not born ended")
	} else {
		<-grew
	}
	r.Emit(&Event{Kind: KindPhaseStart, Job: "j"})
	if evs, _, _ := sub.Since(0); len(evs) != 0 {
		t.Fatalf("closed router logged %+v", evs)
	}
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
