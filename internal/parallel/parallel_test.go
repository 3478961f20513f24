package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSplitRegionsBasic(t *testing.T) {
	regions, err := SplitRegions(0, 12, 12, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 12 {
		t.Fatalf("expected 12 regions, got %d", len(regions))
	}
	if regions[0].Lower != 0 {
		t.Errorf("first region should start at the range lower bound, got %v", regions[0].Lower)
	}
	if regions[11].Upper != 12 {
		t.Errorf("last region should end at the range upper bound, got %v", regions[11].Upper)
	}
	// Adjacent regions must overlap.
	for i := 1; i < len(regions); i++ {
		if !(regions[i].Lower < regions[i-1].Upper) {
			t.Errorf("regions %d and %d do not overlap: %+v %+v", i-1, i, regions[i-1], regions[i])
		}
	}
}

func TestSplitRegionsCoverage(t *testing.T) {
	regions, err := SplitRegions(1e-6, 0.5, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Every point of the range must be inside at least one region.
	for i := 0; i <= 1000; i++ {
		x := 1e-6 + (0.5-1e-6)*float64(i)/1000
		covered := false
		for _, r := range regions {
			if x >= r.Lower && x <= r.Upper {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("point %v not covered by any region", x)
		}
	}
}

func TestSplitRegionsDefaultsAndClamps(t *testing.T) {
	regions, err := SplitRegions(0, 1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != DefaultRegions {
		t.Errorf("k<=0 should fall back to DefaultRegions, got %d", len(regions))
	}
	regions, err = SplitRegions(0, 1, 3, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if r.Lower < 0 || r.Upper > 1 {
			t.Errorf("region %+v escapes the range", r)
		}
	}
	if _, err := SplitRegions(1, 1, 4, 0.1); err == nil {
		t.Errorf("empty range should fail")
	}
	if _, err := SplitRegions(2, 1, 4, 0.1); err == nil {
		t.Errorf("inverted range should fail")
	}
}

func TestPropertySplitRegionsOrderedAndBounded(t *testing.T) {
	f := func(loSeed, spanSeed uint16, kSeed, ovSeed uint8) bool {
		lo := float64(loSeed) / 100
		span := float64(spanSeed)/100 + 0.001
		k := int(kSeed%20) + 1
		overlap := float64(ovSeed%100) / 100
		regions, err := SplitRegions(lo, lo+span, k, overlap)
		if err != nil || len(regions) != k {
			return false
		}
		for i, r := range regions {
			if !(r.Lower < r.Upper) {
				return false
			}
			if r.Lower < lo-1e-12 || r.Upper > lo+span+1e-12 {
				return false
			}
			if i > 0 && r.Lower < regions[i-1].Lower {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestForEachRunsAll(t *testing.T) {
	var count int64
	err := ForEach(context.Background(), 100, 8, func(ctx context.Context, idx int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Errorf("ran %d tasks, want 100", count)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := ForEach(context.Background(), 10, 2, func(ctx context.Context, idx int) error {
		if idx == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("expected sentinel error, got %v", err)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Errorf("zero items should be a no-op, got %v", err)
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 50} {
		ran := false
		err := ForEach(ctx, n, 4, func(ctx context.Context, idx int) error { ran = true; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("n=%d: cancelled context = %v, want context.Canceled", n, err)
		}
		if n == 1 && ran {
			t.Errorf("a lone task ran on a cancelled context")
		}
	}
}

// TestForEachKeepsWorkerErrorOnLateCancellation pins the other exit path:
// even when all indices were fed before the cancellation was observed (the
// normal-completion drain), a worker's real failure must outrank the
// context errors other workers echo for the indices they skipped.
func TestForEachKeepsWorkerErrorOnLateCancellation(t *testing.T) {
	sentinel := errors.New("real failure")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan struct{})
	err := ForEach(ctx, 3, 2, func(ctx context.Context, idx int) error {
		switch idx {
		case 0:
			// Fail only after the cancellation, so any context errors the
			// other worker pushed for remaining indices precede the real
			// failure in the error channel.
			<-cancelled
			return sentinel
		case 1:
			cancel()
			close(cancelled)
			return nil
		default:
			return nil
		}
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the worker's error to outrank cancellation noise", err)
	}
}

// TestForEachKeepsWorkerErrorOnCancellation pins the early-cancellation
// path: when a task fails and the context is cancelled before all work was
// fed, the real failure must still be returned, not swallowed in favour of
// the generic context error.
func TestForEachKeepsWorkerErrorOnCancellation(t *testing.T) {
	sentinel := errors.New("real failure")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEach(ctx, 50, 1, func(ctx context.Context, idx int) error {
		if idx == 0 {
			cancel()
			// Hold the single worker long enough that the feeder observes
			// the cancellation (rather than handing out the next index)
			// and takes the early-return path.
			time.Sleep(50 * time.Millisecond)
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the worker's error to survive cancellation", err)
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var count int64
	err := ForEach(context.Background(), 5, 0, func(ctx context.Context, idx int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil || count != 5 {
		t.Errorf("default worker count run failed: err=%v count=%d", err, count)
	}
}

// TestForEachHandsOutIndicesInOrder pins the dispatch order core's region
// sweep builds on: an index is never started before a lower one.
func TestForEachHandsOutIndicesInOrder(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var next atomic.Int64
		err := ForEach(context.Background(), 64, workers, func(ctx context.Context, idx int) error {
			// Every lower index was handed out first; of those, at most the
			// other workers' current ones have not been counted yet.
			if seen := next.Add(1) - 1; int64(idx) > seen+int64(workers)-1 {
				t.Errorf("workers=%d: index %d started when only %d had", workers, idx, seen)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
