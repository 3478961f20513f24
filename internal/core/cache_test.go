package core

import (
	"context"
	"sync/atomic"
	"testing"

	"fraz/internal/dataset"
	"fraz/internal/pressio"
)

// hurricaneBuffer generates a real synthetic field so the cache tests
// exercise a genuine ratio-versus-bound curve rather than a fake.
func hurricaneBuffer(t *testing.T) pressio.Buffer {
	t.Helper()
	d, err := dataset.New("Hurricane", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := d.Generate("CLOUDf", 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pressio.NewBuffer(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestTuneBufferCacheEliminatesRepeatedCompressions is the acceptance check
// for the shared evaluation cache: on a standard TuneBuffer run the K
// overlapping region searches revisit quantized bounds other regions (or the
// trust-region refinement's own trail) already measured, and every such
// revisit must be served without invoking the compressor.
func TestTuneBufferCacheEliminatesRepeatedCompressions(t *testing.T) {
	var calls int64
	fake := fake("fake", smoothRatio, &calls)
	// A target high in the achievable range makes the low regions search
	// hard before the top region lands, which is exactly when overlapping
	// searches revisit each other's bounds. Workers=1 serialises the regions
	// so the trajectory (and hence the hit count) is machine-independent.
	tu, err := NewTuner(fake, Config{Objective: FixedRatio(60), Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), smallBuffer(512))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Errorf("standard TuneBuffer run recorded no cache hits (misses=%d)", res.CacheMisses)
	}
	if res.Iterations != res.CacheHits+res.CacheMisses {
		t.Errorf("Iterations = %d, want CacheHits+CacheMisses = %d+%d",
			res.Iterations, res.CacheHits, res.CacheMisses)
	}
	// Every cache hit is a compression the tuner did not perform.
	if got := atomic.LoadInt64(&calls); got != int64(res.CacheMisses) {
		t.Errorf("compressor invoked %d times, want one per cache miss (%d)", got, res.CacheMisses)
	}
}

// TestTuneBufferCacheWithRealCompressor repeats the check against the real
// SZ adapter on a synthetic Hurricane field.
func TestTuneBufferCacheWithRealCompressor(t *testing.T) {
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: FixedRatio(8), Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), hurricaneBuffer(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Errorf("real-compressor TuneBuffer run recorded no cache hits (misses=%d)", res.CacheMisses)
	}
}

// TestSharedCacheAcrossTuningRuns shows that a cache handed in through
// Config.Cache carries evaluations from one run to the next: re-tuning the
// same buffer is answered almost entirely from the cache.
func TestSharedCacheAcrossTuningRuns(t *testing.T) {
	var calls int64
	fake := fake("fake", smoothRatio, &calls)
	cache := pressio.NewCache()
	buf := smallBuffer(512)

	run := func(seed int64) Result {
		t.Helper()
		// One worker: with more, which regions get to start before the first
		// acceptable one cancels the rest is up to the scheduler, and the
		// second run may visit bounds the first never did.
		tu, err := NewTuner(fake, Config{Objective: FixedRatio(10), Seed: seed, Cache: cache, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.TuneBuffer(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	run(1)
	callsAfterFirst := atomic.LoadInt64(&calls)
	second := run(1) // identical seed: the search trajectory repeats exactly
	if got := atomic.LoadInt64(&calls); got != callsAfterFirst {
		t.Errorf("second identical run compressed %d more times, want 0", got-callsAfterFirst)
	}
	if second.CacheMisses != 0 {
		t.Errorf("second identical run missed %d times, want 0", second.CacheMisses)
	}
	if second.CacheHits != second.Iterations {
		t.Errorf("second run: hits %d != iterations %d", second.CacheHits, second.Iterations)
	}
}

// TestSeriesAggregatesCacheCounters checks that TuneSeries totals the
// per-step counters, including the prediction reuse path.
func TestSeriesAggregatesCacheCounters(t *testing.T) {
	fake := fake("fake", smoothRatio, nil)
	tu, err := NewTuner(fake, Config{Objective: FixedRatio(10), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(256)
	s := Series{
		Field: "synthetic",
		Steps: 4,
		At:    func(int) (pressio.Buffer, error) { return buf, nil },
	}
	out, err := tu.TuneSeries(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int
	for _, step := range out.Steps {
		hits += step.Result.CacheHits
		misses += step.Result.CacheMisses
	}
	if out.CacheHits != hits || out.CacheMisses != misses {
		t.Errorf("series totals %d/%d, want %d/%d", out.CacheHits, out.CacheMisses, hits, misses)
	}
	// Steps 2..4 reuse step 1's bound on the identical buffer, so the
	// prediction evaluations themselves are cache hits.
	if out.CacheHits == 0 {
		t.Errorf("series on an identical buffer should hit the cache")
	}
}
