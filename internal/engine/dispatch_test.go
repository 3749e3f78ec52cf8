package engine

import (
	"context"
	"testing"
	"time"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// dispatchTimeout bounds how long a dispatch test waits for work that
// a correct dispatcher starts at once.
const dispatchTimeout = 5 * time.Second

// swapCapture replaces the Phase A capture with hook for the rest of
// the test.
func swapCapture(t *testing.T, hook func(*trace.Trace, *mem.Architecture, []sim.Window) (*sim.BehaviorTrace, error)) {
	t.Helper()
	t.Cleanup(func() { captureTrace = sim.CaptureBehavior })
	captureTrace = hook
}

// distinctConns returns n connectivity architectures of a with one
// cluster per channel and pairwise different component assignments, so
// each of their requests owns its memo entry.
func distinctConns(t testing.TB, a *mem.Architecture, n int) []*connect.Arch {
	t.Helper()
	lib := connect.Library()
	chans := a.Channels()
	fit := make([][]connect.Component, len(chans))
	for i, ch := range chans {
		for _, comp := range lib {
			if comp.Fits(2, ch.OffChip) {
				fit[i] = append(fit[i], comp)
			}
		}
	}
	conns := make([]*connect.Arch, n)
	for k := range conns {
		c := &connect.Arch{Channels: chans}
		rest := k
		for i := range chans {
			c.Clusters = append(c.Clusters, []int{i})
			c.Assign = append(c.Assign, fit[i][rest%len(fit[i])])
			rest /= len(fit[i])
		}
		if rest > 0 {
			t.Fatalf("%s has fewer than %d connectivity architectures", a.Name, n)
		}
		conns[k] = c
	}
	return conns
}

// chanSink forwards the eval events it receives to a channel.
type chanSink chan obs.Event

func (s chanSink) Emit(ev *obs.Event) {
	if ev.Kind == obs.KindEval {
		s <- *ev
	}
}

func (s chanSink) Close() error { return nil }

// TestDispatchCapturesInParallel: with two worker slots, both captures
// of a two-group batch are in flight at once. Every group has three
// chunks, so a chunk that held a slot while its own group's capture ran
// could leave the other group's capture waiting for that slot.
func TestDispatchCapturesInParallel(t *testing.T) {
	tr := testTrace(t).Slice(0, 2000)
	started := make(chan string, 2) // one send per capture, two a round
	var release chan struct{}
	swapCapture(t, func(tr *trace.Trace, m *mem.Architecture, w []sim.Window) (*sim.BehaviorTrace, error) {
		started <- m.Name
		<-release
		return sim.CaptureBehavior(tr, m, w)
	})
	// Which chunk of a batch reaches a slot first is up to the Go
	// scheduler; the rounds cover its orders.
	for round := 0; round < 100; round++ {
		release = make(chan struct{})
		b := twoCacheArch()
		b.Name, b.Modules[1] = "c2-16k", mem.MustCache(16384, 32, 2)
		var reqs []Request
		for _, a := range []*mem.Architecture{twoCacheArch(), b} {
			for _, c := range distinctConns(t, a, 96) {
				reqs = append(reqs, sampled(tr, a, c))
			}
		}
		e := New(2)
		done := make(chan error, 1)
		go func() {
			_, err := e.Evaluate(context.Background(), reqs)
			done <- err
		}()
		inFlight := map[string]bool{}
		for len(inFlight) < 2 {
			select {
			case name := <-started:
				inFlight[name] = true
			case <-time.After(dispatchTimeout):
				close(release)
				<-done
				t.Fatalf("round %d: captures in flight %v, want both groups'", round, inFlight)
			}
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.BehaviorCaptures != 2 || st.Simulations != int64(len(reqs)) {
			t.Fatalf("round %d: %d captures and %d simulations, want 2 and %d",
				round, st.BehaviorCaptures, st.Simulations, len(reqs))
		}
	}
}

// TestDispatchWaitHoldsNoSlot: with one worker slot, a call whose first
// group waits on another call's in-flight capture still captures and
// replays its second group meanwhile. The second group has three
// chunks, so the waiting group would take the one slot between them if
// waiting held a slot.
func TestDispatchWaitHoldsNoSlot(t *testing.T) {
	tr := testTrace(t).Slice(0, 2000)
	var held string
	heldStarted := make(chan struct{}, 1)
	var release chan struct{}
	swapCapture(t, func(tr *trace.Trace, m *mem.Architecture, w []sim.Window) (*sim.BehaviorTrace, error) {
		if m.Name == held {
			heldStarted <- struct{}{}
			<-release
		}
		return sim.CaptureBehavior(tr, m, w)
	})
	for round := 0; round < 10; round++ {
		release = make(chan struct{})
		a, b := testArch(4096), twoCacheArch()
		held = a.Name
		aConns := distinctConns(t, a, 2)
		// Room for every evaluation of the round (98), so the
		// observer never blocks on the sink.
		evals := make(chanSink, 256)
		e := New(1, WithObserver(obs.NewObserver(evals)))

		owner := make(chan error, 1)
		go func() {
			_, err := e.EvaluateOne(context.Background(), sampled(tr, a, aConns[0]))
			owner <- err
		}()
		select {
		case <-heldStarted:
		case <-time.After(dispatchTimeout):
			t.Fatal("the owning call's capture never started")
		}

		reqs := []Request{sampled(tr, a, aConns[1])}
		for _, c := range distinctConns(t, b, 96) {
			reqs = append(reqs, sampled(tr, b, c))
		}
		waiter := make(chan error, 1)
		go func() {
			_, err := e.Evaluate(context.Background(), reqs)
			waiter <- err
		}()
		for n := 0; n < len(reqs)-1; n++ {
			select {
			case ev := <-evals:
				if ev.Mem != b.Name {
					t.Fatalf("round %d: evaluation of %s while its capture is held", round, ev.Mem)
				}
			case <-time.After(dispatchTimeout):
				close(release)
				<-owner
				<-waiter
				t.Fatalf("round %d: %d of %d second-group evaluations done while the first group waited",
					round, n, len(reqs)-1)
			}
		}
		close(release)
		if err := <-owner; err != nil {
			t.Fatal(err)
		}
		if err := <-waiter; err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.BehaviorCaptures != 2 || st.Simulations != int64(len(reqs)+1) {
			t.Fatalf("round %d: %d captures and %d simulations, want 2 and %d",
				round, st.BehaviorCaptures, st.Simulations, len(reqs)+1)
		}
	}
}
