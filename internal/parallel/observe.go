package parallel

import (
	"context"
	"time"
)

// Observer receives post-completion notifications about pool jobs.
// Implementations must be safe for concurrent calls: the pool invokes
// Job from every worker goroutine. worker is the index in [0, workers)
// of the goroutine that ran job i (0 on the serial path); it depends on
// scheduling, so use it only for labeling. queueWait is the time between
// pool start and the job being claimed — how long the job sat behind
// earlier indices — and busy is the job's own execution time. Both are
// wall-clock (timing-class, non-deterministic); the observer exists for
// observability, never for control flow.
type Observer interface {
	Job(i, worker int, queueWait, busy time.Duration)
}

type observerKey struct{}

// WithObserver returns a context that makes ForEach report every
// completed job to o. A nil o returns ctx unchanged. Observation is
// carried on the context rather than passed as a parameter so the
// instrumented path costs nothing when unused: the pool checks once per
// run, not per job.
func WithObserver(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, observerKey{}, o)
}

// observerFrom extracts the observer installed by WithObserver, or nil.
func observerFrom(ctx context.Context) Observer {
	o, _ := ctx.Value(observerKey{}).(Observer)
	return o
}
