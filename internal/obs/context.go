package obs

import "context"

// ctxKey keys the run's observer in a context.
type ctxKey struct{}

// NewContext returns a copy of ctx that carries o, the observer of the
// run ctx belongs to. Library code deep in a run (ConEx's per-phase
// prunes and estimator checks) reports to it, so a job-scoped observer
// (ForJob) stamps those events with the run's job.
func NewContext(ctx context.Context, o *Observer) context.Context {
	return context.WithValue(ctx, ctxKey{}, o)
}

// FromContext returns the observer ctx carries, or def when it carries
// none.
func FromContext(ctx context.Context, def *Observer) *Observer {
	if o, ok := ctx.Value(ctxKey{}).(*Observer); ok {
		return o
	}
	return def
}
