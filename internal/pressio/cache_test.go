package pressio

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fraz/internal/container"
	"fraz/internal/grid"
)

func TestQuantizeBound(t *testing.T) {
	if q := QuantizeBound(1e-3); !(q > 0) || q > 1e-3 {
		t.Errorf("QuantizeBound(1e-3) = %v, want positive and <= 1e-3", q)
	}
	if math.Abs(QuantizeBound(1e-3)-1e-3)/1e-3 > 0.02 {
		t.Errorf("QuantizeBound(1e-3) = %v moved more than 2%%", QuantizeBound(1e-3))
	}
	// Nearby bounds collapse onto one grid point.
	a, b := QuantizeBound(1.0), QuantizeBound(1.0001)
	if a != b {
		t.Errorf("QuantizeBound(1.0)=%v and QuantizeBound(1.0001)=%v should coincide", a, b)
	}
	// Clearly distinct bounds stay distinct.
	if QuantizeBound(1.0) == QuantizeBound(1.1) {
		t.Errorf("QuantizeBound should separate 1.0 and 1.1")
	}
	// Degenerate inputs pass through.
	for _, v := range []float64{0, -1, math.Inf(1)} {
		if QuantizeBound(v) != v {
			t.Errorf("QuantizeBound(%v) = %v, want unchanged", v, QuantizeBound(v))
		}
	}
	if !math.IsNaN(QuantizeBound(math.NaN())) {
		t.Errorf("QuantizeBound(NaN) should stay NaN")
	}
}

// TestSlotStaysInsideTheDomainItWasAskedIn: a slot value is a grid point at
// or below the request, except that the grid never takes an admissible
// request out of the domain, and never takes an inadmissible one into it.
func TestSlotStaysInsideTheDomainItWasAskedIn(t *testing.T) {
	p := Param{Unit: UnitAbsError, Lo: 1.001, Hi: 10}
	if got := p.Slot(3.3333); got != QuantizeBound(3.3333) || got > 3.3333 {
		t.Errorf("Slot(3.3333) = %v, want the grid point %v below it", got, QuantizeBound(3.3333))
	}
	if got := p.Slot(1.002); got != p.Lo {
		t.Errorf("Slot(1.002) = %v, want Lo: the grid point %v is outside the domain", got, QuantizeBound(1.002))
	}
	if got := p.Slot(0.9); got != 0.9 {
		t.Errorf("Slot(0.9) = %v, want the request itself, left for the codec to reject", got)
	}
	// An out-of-domain request fails as it did before there were slots.
	c, _ := New("sz:rel")
	if _, _, _, err := NewEvaluator(nil, c, testField3D()).Ratio(-0.5); err == nil {
		t.Error("a negative bound was evaluated")
	}
}

func TestFingerprintDistinguishesDataAndShape(t *testing.T) {
	buf1, err := NewBufferOf([]float32{1, 2, 3, 4}, grid.MustDims(4))
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := NewBufferOf([]float32{1, 2, 3, 5}, grid.MustDims(4))
	if err != nil {
		t.Fatal(err)
	}
	buf3, err := NewBufferOf([]float32{1, 2, 3, 4}, grid.MustDims(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	fp1, fp2, fp3 := Fingerprint(buf1), Fingerprint(buf2), Fingerprint(buf3)
	if fp1 == fp2 {
		t.Errorf("different data should fingerprint differently")
	}
	if fp1 == fp3 {
		t.Errorf("different shape should fingerprint differently")
	}
	if fp1 != Fingerprint(buf1) {
		t.Errorf("fingerprint should be deterministic")
	}
}

// countingCompressor wraps a real compressor and counts Compress calls.
type countingCompressor struct {
	Compressor
	calls atomic.Int64
}

func (c *countingCompressor) Compress(buf Buffer, bound float64) ([]byte, error) {
	c.calls.Add(1)
	return c.Compressor.Compress(buf, bound)
}

func TestEvaluatorServesRepeatsFromCache(t *testing.T) {
	inner, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	comp := &countingCompressor{Compressor: inner}
	buf := testField3D()
	cache := NewCache()
	ev := NewEvaluator(cache, comp, buf)

	r1, s1, q1, err := ev.Ratio(0.01)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, q2, err := ev.Ratio(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || s1 != s2 || q1 != q2 {
		t.Errorf("repeat evaluation differs: (%v,%v,%v) vs (%v,%v,%v)", r1, s1, q1, r2, s2, q2)
	}
	// A bound within the quantization resolution also hits.
	if _, _, _, err := ev.Ratio(0.010000001); err != nil {
		t.Fatal(err)
	}
	if got := comp.calls.Load(); got != 1 {
		t.Errorf("compressor invoked %d times, want 1", got)
	}
	if hits, misses, _ := cache.Stats(); hits != 2 || misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 2/1", hits, misses)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", cache.Len())
	}
}

func TestEvaluatorDistinguishesCodecAndData(t *testing.T) {
	cache := NewCache()
	buf := testField3D()
	szc, _ := New("sz:abs")
	zfpc, _ := New("zfp:accuracy")
	ev1 := NewEvaluator(cache, szc, buf)
	ev2 := NewEvaluator(cache, zfpc, buf)
	if _, _, _, err := ev1.Ratio(0.01); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ev2.Ratio(0.01); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Errorf("different codecs should not share entries: len = %d", cache.Len())
	}
}

func TestEvaluatorNilCacheCompressesEveryTime(t *testing.T) {
	inner, _ := New("sz:abs")
	comp := &countingCompressor{Compressor: inner}
	ev := NewEvaluator(nil, comp, testField3D())
	for i := 0; i < 3; i++ {
		if _, _, q, err := ev.Ratio(0.01); err != nil || q != QuantizeBound(0.01) {
			t.Fatalf("nil-cache Ratio = bound %v, err %v; want the slot's bound %v and nil", q, err, QuantizeBound(0.01))
		}
	}
	if got := comp.calls.Load(); got != 3 {
		t.Errorf("compressor invoked %d times, want 3", got)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	cache := NewCache()
	var computed atomic.Int64
	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	key := CacheKey{Codec: "fake", Fingerprint: 1, Bound: 2}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			entry, _, err := cache.do(key, func() (CacheEntry, error) {
				computed.Add(1)
				return CacheEntry{Bound: 2, Ratio: 4.2, Size: 100}, nil
			})
			if err != nil {
				t.Error(err)
			}
			if entry.Ratio != 4.2 || entry.Size != 100 {
				t.Errorf("entry = %+v", entry)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := computed.Load(); got != 1 {
		t.Errorf("computed %d times, want 1", got)
	}
	hits, misses, _ := cache.Stats()
	if misses != 1 || hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", hits, misses, callers-1)
	}
}

func TestCacheBoundedSize(t *testing.T) {
	cache := NewCacheSized(2)
	fill := func(fp uint64) {
		t.Helper()
		_, _, err := cache.do(CacheKey{Codec: "fake", Fingerprint: fp}, func() (CacheEntry, error) {
			return CacheEntry{Ratio: float64(fp)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for fp := uint64(1); fp <= 10; fp++ {
		fill(fp)
		if cache.Len() > 2 {
			t.Fatalf("cache grew to %d entries with maxSize 2", cache.Len())
		}
	}
	if _, _, evictions := cache.Stats(); evictions == 0 {
		t.Errorf("evictions = 0 after overfilling a 2-entry cache")
	}
	// Eviction is FIFO: the most recent insertions survive.
	if _, hit, _ := cache.do(CacheKey{Codec: "fake", Fingerprint: 10}, func() (CacheEntry, error) {
		return CacheEntry{}, errors.New("should have been cached")
	}); !hit {
		t.Errorf("newest entry was evicted before older ones")
	}
	// An evicted key is recomputed rather than served stale.
	entry, hit, err := cache.do(CacheKey{Codec: "fake", Fingerprint: 1}, func() (CacheEntry, error) {
		return CacheEntry{Ratio: 42}, nil
	})
	if err != nil || hit || entry.Ratio != 42 {
		t.Errorf("evicted key: entry=%+v hit=%v err=%v, want recompute", entry, hit, err)
	}
}

func TestCacheSizedDefault(t *testing.T) {
	if c := NewCacheSized(0); c.maxSize != DefaultMaxEntries {
		t.Errorf("NewCacheSized(0).maxSize = %d, want DefaultMaxEntries", c.maxSize)
	}
}

// TestEvaluatorFullCachesReports pins the quality-objective evaluation path:
// the compress+decompress round trip runs once per quantized bound, repeats
// are served from the cache, and full entries do not collide with
// compress-only entries at the same bound.
func TestEvaluatorFullCachesReports(t *testing.T) {
	inner, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	comp := &countingCompressor{Compressor: inner}
	buf := testField3D()
	cache := NewCache()
	ev := NewEvaluator(cache, comp, buf)

	rep1, q1, err := ev.Full(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CompressionRatio <= 0 || math.IsNaN(rep1.PSNR) || math.IsNaN(rep1.SSIM) {
		t.Fatalf("full report incomplete: %+v", rep1)
	}
	rep2, q2, err := ev.Full(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 || q1 != q2 {
		t.Errorf("repeat full evaluation differs")
	}
	if got := comp.calls.Load(); got != 1 {
		t.Errorf("compressor invoked %d times for two Full calls, want 1", got)
	}
	// A ratio evaluation at the same bound is a distinct entry (the report
	// costs a round trip the ratio path never ran), not a collision.
	if _, _, _, err := ev.Ratio(0.01); err != nil {
		t.Fatal(err)
	}
	if got := comp.calls.Load(); got != 2 {
		t.Errorf("ratio after full at same bound invoked compressor %d times total, want 2", got)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2 (one full, one ratio)", cache.Len())
	}
	if hits, misses, _ := cache.Stats(); hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d/%d, want 1 hit / 2 misses", hits, misses)
	}
}

// TestEvaluatorFullNilCache mirrors the nil-cache ratio contract: every call
// runs the round trip, at the bound a cached evaluation would have run at.
func TestEvaluatorFullNilCache(t *testing.T) {
	inner, _ := New("sz:abs")
	comp := &countingCompressor{Compressor: inner}
	ev := NewEvaluator(nil, comp, testField3D())
	for i := 0; i < 2; i++ {
		if _, q, err := ev.Full(0.01); err != nil || q != QuantizeBound(0.01) {
			t.Fatalf("nil-cache Full = bound %v, err %v", q, err)
		}
	}
	if got := comp.calls.Load(); got != 2 {
		t.Errorf("compressor invoked %d times, want 2", got)
	}
}

func TestCacheDoesNotRetainErrors(t *testing.T) {
	cache := NewCache()
	boom := errors.New("boom")
	key := CacheKey{Codec: "fake", Fingerprint: 3, Bound: 4}
	calls := 0
	_, _, err := cache.do(key, func() (CacheEntry, error) {
		calls++
		return CacheEntry{}, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
	// The failed slot is released, so the next caller retries and a
	// transient failure cannot poison the key for the cache's lifetime.
	entry, hit, err := cache.do(key, func() (CacheEntry, error) {
		calls++
		return CacheEntry{Bound: 4, Ratio: 2, Size: 8}, nil
	})
	if err != nil || hit || entry.Ratio != 2 {
		t.Errorf("retry after error: entry=%+v hit=%v err=%v", entry, hit, err)
	}
	if calls != 2 {
		t.Errorf("failing evaluation called %d times, want 2 (one failure, one retry)", calls)
	}
	if cache.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1 (only the success)", cache.Len())
	}
}

// TestCacheFailedWaitIsNotAHit pins the accounting on the single-flight
// path: a caller that waits on an in-flight evaluation which then fails got
// nothing from the cache, so it must not be counted as a hit.
func TestCacheFailedWaitIsNotAHit(t *testing.T) {
	cache := NewCache()
	boom := errors.New("boom")
	key := CacheKey{Codec: "fake", Fingerprint: 9, Bound: 1}

	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, hit, err := cache.do(key, func() (CacheEntry, error) {
			close(entered) // the evaluation is now in flight
			<-release
			return CacheEntry{}, boom
		})
		if hit || !errors.Is(err, boom) {
			t.Errorf("originator: hit=%v err=%v, want miss with boom", hit, err)
		}
	}()

	<-entered
	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		// Usually this caller blocks on the in-flight slot and receives its
		// failure; if scheduling delays it past the originator's cleanup it
		// recomputes (and fails again) instead. The accounting under test
		// is identical either way: no hit, one more miss.
		_, hit, err := cache.do(key, func() (CacheEntry, error) {
			return CacheEntry{}, boom
		})
		if hit {
			t.Errorf("waiter on a failed evaluation reported a cache hit")
		}
		if !errors.Is(err, boom) {
			t.Errorf("waiter err = %v, want the evaluation failure", err)
		}
	}()

	// Give the waiter a moment to reach the in-flight slot, then fail the
	// evaluation.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-done
	<-waiter

	hits, misses, _ := cache.Stats()
	if hits != 0 {
		t.Errorf("hits = %d, want 0 (nothing was served from the cache)", hits)
	}
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (one failed compute, one failed wait)", misses)
	}
}

// TestEvaluatorMirrorsFailedWaitAccounting checks the same property through
// Evaluator.Ratio: a failed evaluation never increments the evaluator's hit
// counter either.
func TestEvaluatorMirrorsFailedWaitAccounting(t *testing.T) {
	cache := NewCache()
	c, err := New("sz:rel")
	if err != nil {
		t.Fatal(err)
	}
	buf := testField3D()
	ev := NewEvaluator(cache, c, buf)
	// sz:rel rejects bounds > 1, so this evaluation fails deterministically.
	if _, _, _, err := ev.Ratio(7); err == nil {
		t.Fatal("expected the out-of-range bound to fail")
	}
	if _, _, _, err := ev.Ratio(7); err == nil {
		t.Fatal("expected the retried bound to fail")
	}
	if hits, misses, _ := cache.Stats(); hits != 0 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 0/2", hits, misses)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	buf := testField3D()
	c, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 0.01
	cn, err := SealBlocked(context.Background(), c, buf, bound, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Codec != "sz:abs" || cn.Header.Bound != bound || !cn.Header.Shape.Equal(buf.Shape) {
		t.Errorf("sealed header = %+v", cn.Header)
	}
	if cn.Header.Ratio <= 0 {
		t.Errorf("sealed ratio = %v, want > 0", cn.Header.Ratio)
	}

	// Through the wire format and back.
	enc, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OpenBlocked(context.Background(), dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(buf.Shape) || out.Len() != buf.Len() {
		t.Fatalf("opened buffer shape %v with %d values", out.Shape, out.Len())
	}
	for i := range buf.Float32() {
		if diff := math.Abs(float64(out.Float32()[i]) - float64(buf.Float32()[i])); diff > bound {
			t.Fatalf("value %d error %v exceeds bound %v", i, diff, bound)
		}
	}
}

func TestOpenRejectsUnknownCodec(t *testing.T) {
	cn, err := container.New("no-such-codec", 1, 1, container.Float32, grid.MustDims(4), [][]byte{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBlocked(context.Background(), cn, 1); !errors.Is(err, ErrUnknownCompressor) {
		t.Errorf("err = %v, want ErrUnknownCompressor", err)
	}
}

func TestOpenRejectsUnknownDType(t *testing.T) {
	cn, err := container.New("sz:abs", 1, 1, container.Float32, grid.MustDims(4), [][]byte{{1}})
	if err != nil {
		t.Fatal(err)
	}
	cn.Header.DType = 7
	if _, err := OpenBlocked(context.Background(), cn, 1); err == nil {
		t.Errorf("unknown dtype should fail")
	}
}

func TestCodecsAndLookup(t *testing.T) {
	codecs := Codecs()
	if len(codecs) != len(Names()) {
		t.Fatalf("Codecs() has %d entries, Names() %d", len(codecs), len(Names()))
	}
	for i := 1; i < len(codecs); i++ {
		if codecs[i-1].Name >= codecs[i].Name {
			t.Errorf("Codecs() not sorted at %d: %q >= %q", i, codecs[i-1].Name, codecs[i].Name)
		}
	}
	c, ok := Lookup("mgard:abs")
	if !ok {
		t.Fatal("mgard:abs not registered")
	}
	if c.Name != "mgard:abs" {
		t.Errorf("Lookup(mgard:abs) returned %q", c.Name)
	}
	if _, ok := Lookup("nope"); ok {
		t.Errorf("Lookup of unregistered name should fail")
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { Register(&Codec{}) })
}
