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
// for the shared evaluation cache: every evaluation is either a hit or a
// compression, and where a run revisits bounds already measured — a region
// crowding against a ceiling collides with its own trail and its
// neighbour's — the revisits are served without invoking the compressor.
func TestTuneBufferCacheEliminatesRepeatedCompressions(t *testing.T) {
	// 60 is in reach two regions up, and nothing makes the region below it
	// revisit a bound (a hit there is a coincidence of the seed): that run
	// checks the accounting. 70 is only in reach near the top of the range,
	// so five regions spend their budget crowding against their upper ends.
	for _, target := range []float64{60, 70} {
		var calls int64
		fake := fake("fake", smoothRatio, &calls)
		// One worker, because this test counts compressor calls: more workers
		// also compress ahead in regions the answer does not rest on, which
		// Result does not bill.
		tu, err := NewTuner(fake, Config{Objective: FixedRatio(target), Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.SweepOnly().TuneBuffer(context.Background(), smallBuffer(512))
		if err != nil {
			t.Fatal(err)
		}
		if target == 70 && res.CacheHits == 0 {
			t.Errorf("target %v: run recorded no cache hits (misses=%d)", target, res.CacheMisses)
		}
		if res.Iterations != res.CacheHits+res.CacheMisses {
			t.Errorf("target %v: Iterations = %d, want CacheHits+CacheMisses = %d+%d",
				target, res.Iterations, res.CacheHits, res.CacheMisses)
		}
		// Every cache hit is a compression the tuner did not perform.
		if got := atomic.LoadInt64(&calls); got != int64(res.CacheMisses) {
			t.Errorf("target %v: compressor invoked %d times, want one per cache miss (%d)", target, got, res.CacheMisses)
		}
	}
}

// TestTuneBufferCacheWithRealCompressor repeats the check against the real
// SZ adapter on a synthetic Hurricane field. 8 is in reach, and found
// without a revisit; the ratio saturates near 32, so every region of a search
// for 40 spends its budget against a ceiling.
func TestTuneBufferCacheWithRealCompressor(t *testing.T) {
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{8, 40} {
		tu, err := NewTuner(c, Config{Objective: FixedRatio(target), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.SweepOnly().TuneBuffer(context.Background(), hurricaneBuffer(t))
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible != (target == 8) {
			t.Errorf("target %v: feasible = %v", target, res.Feasible)
		}
		if target == 40 && res.CacheHits == 0 {
			t.Errorf("target %v: run recorded no cache hits (misses=%d)", target, res.CacheMisses)
		}
		if res.Iterations != res.CacheHits+res.CacheMisses {
			t.Errorf("target %v: Iterations = %d, want CacheHits+CacheMisses = %d+%d",
				target, res.Iterations, res.CacheHits, res.CacheMisses)
		}
	}
}

// TestSharedCacheAcrossTuningRuns shows that a cache handed in through
// Config.Cache carries evaluations from one run to the next: re-tuning the
// same buffer is answered entirely from the cache, and — whatever the cache
// held, however many workers filled it — with the same answer.
func TestSharedCacheAcrossTuningRuns(t *testing.T) {
	var calls int64
	fake := fake("fake", smoothRatio, &calls)
	buf := smallBuffer(512)

	run := func(cache *pressio.Cache, workers int) Result {
		t.Helper()
		tu, err := NewTuner(fake, Config{Objective: FixedRatio(10), Seed: 1, Cache: cache, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.TuneBuffer(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// One worker where compressor calls are counted: more workers also
	// compress ahead, in regions the answer does not rest on.
	cache := pressio.NewCache()
	first := run(cache, 1)
	callsAfterFirst := atomic.LoadInt64(&calls)
	second := run(cache, 1) // identical seed: the search trajectory repeats exactly
	if got := atomic.LoadInt64(&calls); got != callsAfterFirst {
		t.Errorf("second identical run compressed %d more times, want 0", got-callsAfterFirst)
	}
	if second.CacheMisses != 0 || second.CacheHits != second.Iterations {
		t.Errorf("second identical run: %d hits, %d misses of %d iterations, want all hits",
			second.CacheHits, second.CacheMisses, second.Iterations)
	}

	cache = pressio.NewCache()
	for i := 0; i < 2; i++ {
		if got := run(cache, 4); got.ErrorBound != first.ErrorBound || got.Iterations != first.Iterations {
			t.Errorf("run %d at 4 workers: bound %v in %d iterations, one worker found %v in %d",
				i, got.ErrorBound, got.Iterations, first.ErrorBound, first.Iterations)
		}
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
