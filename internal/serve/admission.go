package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrQueueFull is returned by impatient admission when the wait queue
// is at capacity. Handlers map it to 429 + Retry-After.
var ErrQueueFull = errors.New("serve: admission queue full")

// admission is the server's load shedder: a fixed pool of execution
// slots fronted by a bounded wait queue. Interactive requests
// (patient=false) are rejected the moment the queue is full — the
// client gets an immediate 429 it can back off on, and the server's
// memory and latency stay bounded no matter the offered load. Sweeps
// (patient=true) bypass the queue bound: a batch caller already applies
// flow control by bounding its own parallelism, so its cells wait for a
// slot however long that takes (or until its deadline).
type admission struct {
	slots   chan struct{}
	maxWait int64
	waiting atomic.Int64

	inflight   *obs.Gauge
	queueDepth *obs.Gauge
}

// newAdmission builds the controller; a nil metrics registry means a
// private one.
func newAdmission(workers, queue int, metrics *obs.Registry) *admission {
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	return &admission{
		slots:      make(chan struct{}, workers),
		maxWait:    int64(queue),
		inflight:   metrics.Gauge("serve_inflight", "simulations currently executing"),
		queueDepth: metrics.Gauge("serve_queue_depth", "requests waiting for an execution slot"),
	}
}

// acquire blocks until an execution slot is free or ctx is done, and
// returns an idempotent release function. Impatient callers are
// rejected with ErrQueueFull instead of waiting when the queue is at
// capacity. A ctx already done gets no slot, so the cells a canceled
// job or sweep has not started yet never reach the engine.
func (a *admission) acquire(ctx context.Context, patient bool) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Fast path: a free slot means no queueing at all.
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	default:
	}
	if !patient {
		// CAS loop so the queue bound is strict even under a stampede:
		// no two racing requests can both take the last queue place.
		for {
			cur := a.waiting.Load()
			if cur >= a.maxWait {
				return nil, ErrQueueFull
			}
			if a.waiting.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		a.waiting.Add(1)
	}
	a.gaugeQueue()
	defer func() {
		a.waiting.Add(-1)
		a.gaugeQueue()
	}()
	select {
	case a.slots <- struct{}{}:
		return a.admitted(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitted records the new in-flight execution and returns its
// once-only release.
func (a *admission) admitted() func() {
	a.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.slots
			a.inflight.Add(-1)
		})
	}
}

func (a *admission) gaugeQueue() {
	a.queueDepth.Set(float64(a.waiting.Load()))
}

// RetryAfterSeconds is the backpressure hint sent with 429 and 503
// responses. One second is deliberately coarse: cells run milliseconds
// to tens of seconds, and the client library layers jittered
// exponential backoff on top of this floor.
const RetryAfterSeconds = 1
