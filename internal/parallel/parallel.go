// Package parallel provides the task-parallel building blocks of FRaZ's
// orchestrator: splitting an error-bound search range into slightly
// overlapping regions (paper Fig. 5) and running a set of indexed tasks, in
// index order, with bounded concurrency.
//
// The paper distributes these tasks over MPI ranks and cancels every
// outstanding region the moment any one finds an acceptable bound (Algorithm
// 2, lines 7–14), which makes the answer depend on which rank finishes
// first. Here the tasks are goroutines, and the early termination is the
// caller's: internal/core keeps the lowest acceptable region index and lets
// only the regions above it stop, so extra workers speculate ahead without
// changing what one worker would have computed.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Region is a sub-interval of the error-bound search range.
type Region struct {
	Lower, Upper float64
}

// DefaultRegions is the number of error-bound regions used per field and
// time-step when the caller does not specify one. The paper found 12 tasks
// per field/time-step to be the best efficiency/runtime trade-off (§V-C).
const DefaultRegions = 12

// DefaultOverlap is the fractional overlap between adjacent regions. The
// paper uses a small fixed percentage of the region width (10%) so that a
// target sitting exactly on a region border is still surrounded by
// stationary points usable for quadratic refinement.
const DefaultOverlap = 0.10

// ErrBadRange is returned when a search range is empty or inverted.
var ErrBadRange = errors.New("parallel: invalid range")

// SplitRegions divides [lo, hi] into k regions that overlap by the given
// fraction of the region width. The first and last regions are clipped to
// the original range, as in the paper's Fig. 5.
func SplitRegions(lo, hi float64, k int, overlap float64) ([]Region, error) {
	if !(lo < hi) {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadRange, lo, hi)
	}
	if k <= 0 {
		k = DefaultRegions
	}
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 0.9 {
		overlap = 0.9
	}
	width := (hi - lo) / float64(k)
	pad := width * overlap / 2
	regions := make([]Region, k)
	for i := 0; i < k; i++ {
		rlo := lo + float64(i)*width - pad
		rhi := lo + float64(i+1)*width + pad
		if rlo < lo {
			rlo = lo
		}
		if rhi > hi {
			rhi = hi
		}
		regions[i] = Region{Lower: rlo, Upper: rhi}
	}
	return regions, nil
}

// ForEach runs fn for every input index with at most workers concurrent
// goroutines, stopping early if the context is cancelled. Indices are handed
// out in increasing order, so index i never starts after index i+1 — which
// is what lets a caller treat the higher indices as speculation. It returns
// the first non-nil error (other tasks still run to completion of the ones
// already started).
//
// A lone task runs on the caller's goroutine, with no channel and no worker:
// a monolithic seal or open is one task, and on a small field a worker
// starting on a cold stack is slow enough to notice (0.58 → 0.71 ms per seal
// on the psnr-search workload).
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, idx int) error) error {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(ctx, 0)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var s tasks
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for idx := range idxCh {
				err := ctx.Err()
				if err == nil {
					err = fn(ctx, idx)
				}
				s.record(ctx, err)
			}
		}()
	}
	fed := true
	for i := 0; i < n && fed; i++ {
		select {
		case idxCh <- i:
		case <-ctx.Done():
			// Stop feeding work; a worker's real failure still outranks the
			// generic cancellation.
			fed = false
		}
	}
	close(idxCh)
	s.wg.Wait()
	switch {
	case s.failure != nil:
		return s.failure
	case s.cancelled != nil:
		return s.cancelled
	case !fed:
		return ctx.Err()
	}
	return nil
}

// tasks is what one ForEach call's workers share, in one allocation: the
// group they finish in, and the first real failure and the first
// cancellation echo, kept apart so a real failure outranks the generic
// cancellation other workers report for the indices they skip, on either
// exit path.
type tasks struct {
	wg                 sync.WaitGroup
	mu                 sync.Mutex
	failure, cancelled error
}

// record files a task's error. Only a task that returns one takes the lock.
func (s *tasks) record(ctx context.Context, err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		if s.cancelled == nil {
			s.cancelled = err
		}
	} else if s.failure == nil {
		s.failure = err
	}
}
