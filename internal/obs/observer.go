package obs

import (
	"sync"
	"time"
)

// Observer fans structured events out to its sinks. The zero of the
// type is not used directly: a nil *Observer is the disabled observer,
// and every method (including Enabled) is safe and free on it, so
// instrumented code calls unconditionally:
//
//	var o *obs.Observer            // nil: observability off
//	o.PhaseStart("conex/estimate") // no-op, no allocation
//
// Emission is serialized under one mutex, so sinks need no locking of
// their own and see events in strictly increasing Seq order.
//
// An observer can be scoped to a job with ForJob: the derived observer
// shares the parent's sinks and sequence counter (one dense stream) but
// stamps Event.Job on everything it emits, so a Router sink can fan the
// shared stream back out per job.
type Observer struct {
	s   *fanout
	job string
}

// fanout is the state shared by an observer and all its ForJob
// derivatives: the sequence counter, the sink list and the emission
// lock.
type fanout struct {
	mu     sync.Mutex
	seq    uint64 // guarded by mu, so sinks see Seq in order
	sinks  []Sink
	closed bool
	err    error
}

// NewObserver returns an observer fanning out to the given sinks. With
// no sinks it returns nil — the disabled observer — so callers can
// build one unconditionally from optional configuration.
func NewObserver(sinks ...Sink) *Observer {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return &Observer{s: &fanout{sinks: live}}
}

// ForJob returns an observer that stamps every emitted event with the
// given job identifier while sharing this observer's sinks, emission
// lock and (dense) sequence counter. A service multiplexing many jobs
// onto one engine gives each run a scoped observer so a Router can
// route run-level events to the right subscriber. ForJob on the nil
// observer, or with an empty job, returns the receiver unchanged.
func (o *Observer) ForJob(job string) *Observer {
	if o == nil || job == "" {
		return o
	}
	return &Observer{s: o.s, job: job}
}

// Job returns the job identifier this observer stamps (empty for an
// unscoped observer).
func (o *Observer) Job() string {
	if o == nil {
		return ""
	}
	return o.job
}

// Enabled reports whether events are being consumed. Hot paths guard
// any label formatting or other allocation behind it.
func (o *Observer) Enabled() bool { return o != nil }

// Close closes every sink, returning the first error. Close is
// idempotent — concurrent and repeated calls are safe and return the
// first call's result — so a draining service can close from a signal
// handler while runs finish. Events emitted after Close are dropped.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	if o.s.closed {
		return o.s.err
	}
	o.s.closed = true
	for _, s := range o.s.sinks {
		if err := s.Close(); err != nil && o.s.err == nil {
			o.s.err = err
		}
	}
	return o.s.err
}

// emit stamps and fans out one event.
func (o *Observer) emit(ev *Event) {
	if o == nil {
		return
	}
	ev.Job = o.job
	ev.Time = time.Now()
	o.s.mu.Lock()
	o.s.seq++
	ev.Seq = o.s.seq
	if !o.s.closed {
		for _, s := range o.s.sinks {
			s.Emit(ev)
		}
	}
	o.s.mu.Unlock()
}

// RunStart reports the beginning of an exploration run.
func (o *Observer) RunStart(benchmark string, accesses int64) {
	if o == nil {
		return
	}
	o.emit(&Event{Kind: KindRunStart, Benchmark: benchmark, Accesses: accesses})
}

// RunEnd reports the end of an exploration run; err is the failure, or
// nil on success.
func (o *Observer) RunEnd(benchmark string, wall time.Duration, err error) {
	if o == nil {
		return
	}
	ev := &Event{Kind: KindRunEnd, Benchmark: benchmark, WallNS: wall.Nanoseconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	o.emit(ev)
}

// PhaseStart reports entry into a named phase.
func (o *Observer) PhaseStart(phase string) {
	if o == nil {
		return
	}
	o.emit(&Event{Kind: KindPhaseStart, Phase: phase})
}

// PhaseEnd reports the end of a named phase and its wall time.
func (o *Observer) PhaseEnd(phase string, wall time.Duration) {
	if o == nil {
		return
	}
	o.emit(&Event{Kind: KindPhaseEnd, Phase: phase, WallNS: wall.Nanoseconds()})
}

// TraceGenerated reports a generated (or loaded) benchmark trace.
func (o *Observer) TraceGenerated(benchmark string, accesses int64, dataStructures int) {
	if o == nil {
		return
	}
	o.emit(&Event{Kind: KindTrace, Benchmark: benchmark, Accesses: accesses, DataStructures: dataStructures})
}

// APEXSelected reports the memory-modules selection: how many
// architectures were evaluated and how many entered ConEx.
func (o *Observer) APEXSelected(evaluated, selected int) {
	if o == nil {
		return
	}
	o.emit(&Event{Kind: KindAPEX, Evaluated: evaluated, Selected: selected})
}

// Evaluation describes one design-point evaluation for Eval.
type Evaluation struct {
	Phase     string
	Mem, Conn string
	Cost      float64
	Latency   float64
	Energy    float64
	Estimated bool
	CacheHit  bool
	Work      int64
	Wall      time.Duration
}

// Eval reports one design-point evaluation.
func (o *Observer) Eval(e Evaluation) {
	if o == nil {
		return
	}
	o.emit(&Event{
		Kind:      KindEval,
		Phase:     e.Phase,
		Mem:       e.Mem,
		Conn:      e.Conn,
		Cost:      e.Cost,
		Latency:   e.Latency,
		Energy:    e.Energy,
		Estimated: e.Estimated,
		CacheHit:  e.CacheHit,
		Work:      e.Work,
		WallNS:    e.Wall.Nanoseconds(),
	})
}

// Prune reports one pruning decision: of evaluated candidates at the
// named stage (scoped to the named memory architecture when non-empty),
// selected survive; dropped counts candidates an enumeration cap cut
// before evaluation.
func (o *Observer) Prune(stage, mem string, evaluated, selected int, dropped int64) {
	if o == nil {
		return
	}
	o.emit(&Event{Kind: KindPrune, Stage: stage, Mem: mem, Evaluated: evaluated, Selected: selected, Dropped: dropped})
}

// EstimatorError reports the sampling estimator's error on one design:
// Phase II fully simulated a design Phase I estimated, and the latency
// figures disagree by relErrPct percent.
func (o *Observer) EstimatorError(mem, conn string, estLatency, fullLatency, relErrPct float64) {
	if o == nil {
		return
	}
	o.emit(&Event{
		Kind:        KindEstimatorError,
		Mem:         mem,
		Conn:        conn,
		EstLatency:  estLatency,
		FullLatency: fullLatency,
		RelErrPct:   relErrPct,
	})
}
