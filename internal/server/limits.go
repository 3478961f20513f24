package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
)

// This file implements frazd's admission control: the decision, made before
// any CPU is spent, of whether a request may enter the system at all — and
// the worker pool that then bounds how many admitted requests tune or seal
// concurrently. The split matters for backpressure semantics: saturation is
// reported immediately (429 + Retry-After), never by letting requests queue
// unboundedly while the client waits blind.

// errTenantSaturated rejects a request whose tenant already has its full
// concurrency allowance in the system (queued or running).
var errTenantSaturated = &statusError{http.StatusTooManyRequests, "tenant", errors.New("the tenant has reached its concurrency limit")}

// errQueueFull rejects a request when the admission queue (everything
// admitted but not yet finished) is at capacity.
var errQueueFull = &statusError{http.StatusTooManyRequests, "queue", errors.New("admission queue is full")}

// admission is the two-stage gate: enter() reserves a seat in the bounded
// system (per-tenant fairness + global queue bound, both non-blocking), and
// acquire() then waits for one of the worker slots that bound concurrent
// CPU work.
type admission struct {
	// slots is the worker pool: a buffered channel used as a counting
	// semaphore, capacity = Config.Concurrency. Its length is the number of
	// requests running.
	slots chan struct{}
	// maxAdmitted bounds everything in the system: running + queued.
	maxAdmitted, perTenant int

	mu       sync.Mutex
	admitted int
	tenants  map[string]int
}

func newAdmission(concurrency, queueDepth, perTenant int) *admission {
	return &admission{
		slots:       make(chan struct{}, concurrency),
		maxAdmitted: concurrency + queueDepth,
		perTenant:   perTenant,
		tenants:     make(map[string]int),
	}
}

// enter reserves the tenant's and the queue's seat. It never blocks: a
// request that cannot be seated is the caller's cue to answer 429. The
// returned leave func must be called exactly once when the request finishes
// (success or failure).
func (a *admission) enter(tenant string) (leave func(), err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.tenants[tenant] >= a.perTenant:
		return nil, errTenantSaturated
	case a.admitted >= a.maxAdmitted:
		return nil, errQueueFull
	}
	a.tenants[tenant]++
	a.admitted++
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			a.admitted--
			if a.tenants[tenant]--; a.tenants[tenant] == 0 {
				delete(a.tenants, tenant)
			}
		})
	}, nil
}

// acquire blocks until a worker slot frees up or the context ends; the
// request's deadline therefore caps its queueing time too. The returned
// release func must be called exactly once.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	var once sync.Once
	return func() { once.Do(func() { <-a.slots }) }, nil
}

// queued reports admitted requests not currently holding a worker slot.
func (a *admission) queued() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(max(a.admitted-len(a.slots), 0))
}
