package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

// measureAllocBytes reports the heap bytes one ForEach call over n items
// allocates, averaged over a few runs with the worker count pinned.
func measureAllocBytes(t *testing.T, n int) uint64 {
	t.Helper()
	const runs = 10
	var sink atomic.Int64
	fn := func(ctx context.Context, idx int) error {
		sink.Add(int64(idx))
		return nil
	}
	// Warm the worker-scratch pool so the measurement sees steady state.
	if err := ForEach(context.Background(), n, 4, fn); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := ForEach(context.Background(), n, 4, fn); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestForEachAllocsIndependentOfN pins the fix for the per-call result
// buffer: error bookkeeping lives in pooled workers-sized scratch, so the
// bytes allocated per call must not scale with the item count (the old
// n-buffered error channel allocated 8n bytes before the first task ran).
func TestForEachAllocsIndependentOfN(t *testing.T) {
	small := measureAllocBytes(t, 8)
	large := measureAllocBytes(t, 100_000)
	// Channel buffers of 100k errors would show up as ~800 KiB; genuinely
	// n-independent bookkeeping stays within noise. Allow generous slack for
	// scheduler/pool variance.
	if large > small+16*1024 {
		t.Errorf("ForEach allocates %d bytes/call at n=100000 vs %d at n=8; bookkeeping scales with n", large, small)
	}
}

// TestForEachLoneTaskAllocatesNothing pins the one-task path every monolithic
// seal and open takes: the task runs on the caller's goroutine, so no
// channel, goroutine or worker scratch is allocated for it.
func TestForEachLoneTaskAllocatesNothing(t *testing.T) {
	var sink atomic.Int64
	fn := func(ctx context.Context, idx int) error {
		sink.Add(int64(idx) + 1)
		return nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ForEach(context.Background(), 1, 4, fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ForEach over one task allocates %.0f times per call, want 0", allocs)
	}
	if sink.Load() == 0 {
		t.Error("the task never ran")
	}
}

func BenchmarkForEach(b *testing.B) {
	b.ReportAllocs()
	var sink atomic.Int64
	fn := func(ctx context.Context, idx int) error {
		sink.Add(int64(idx))
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ForEach(context.Background(), 1024, 4, fn); err != nil {
			b.Fatal(err)
		}
	}
}
