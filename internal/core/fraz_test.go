package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"fraz/internal/dataset"
	"fraz/internal/grid"
	"fraz/internal/pressio"
)

// fake builds a deterministic stand-in codec whose ratio-versus-bound curve
// is controllable, so the tuner's search logic can be tested in isolation
// from the real codecs. calls, when non-nil, counts Encode invocations; it
// is updated atomically because the tuner runs region searches on concurrent
// goroutines.
func fake(name string, ratioFn func(bound float64) float64, calls *int64) *pressio.Codec {
	return &pressio.Codec{
		Name: name, MinRank: 1, MaxRank: 4,
		Param: pressio.Param{Name: "fake bound", Unit: pressio.UnitAbsError, Lo: 1e-12, Hi: 1e12},
		Encode: func(buf pressio.Buffer, bound float64) ([]byte, error) {
			if calls != nil {
				atomic.AddInt64(calls, 1)
			}
			ratio := ratioFn(bound)
			if ratio < 1 {
				ratio = 1
			}
			size := int(float64(buf.Bytes()) / ratio)
			if size < 1 {
				size = 1
			}
			return make([]byte, size), nil
		},
		Decode: func([]byte, pressio.Buffer) error { return nil }, // a field of zeros
	}
}

// failing returns a copy of the codec whose Encode fails with errFaulty
// whenever the predicate says so and otherwise behaves like the original.
func failing(c *pressio.Codec, fail func(bound float64) bool) *pressio.Codec {
	out := *c
	out.Encode = func(buf pressio.Buffer, bound float64) ([]byte, error) {
		if fail(bound) {
			return nil, errFaulty
		}
		return c.Encode(buf, bound)
	}
	return &out
}

var errFaulty = errors.New("faulty compressor: bound rejected")

// counting returns a copy of the codec that counts its Encode calls into
// calls, the way fake does.
func counting(c *pressio.Codec, calls *int64) *pressio.Codec {
	out := *c
	out.Encode = func(buf pressio.Buffer, bound float64) ([]byte, error) {
		atomic.AddInt64(calls, 1)
		return c.Encode(buf, bound)
	}
	return &out
}

func smallBuffer(n int) pressio.Buffer {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 10))
	}
	buf, err := pressio.NewBufferOf(data, grid.MustDims(n))
	if err != nil {
		panic(err)
	}
	return buf
}

// smoothRatio is a monotone, smooth ratio curve reaching ~64 at bound 2.
func smoothRatio(bound float64) float64 {
	return 1 + 63*bound/(bound+0.05)/(2/(2+0.05))
}

// fixedRatio is FixedRatio(target) with the fractional tolerance tol.
func fixedRatio(target, tol float64) Objective {
	return withTolerance(FixedRatio(target), tol)
}

func TestNewTunerValidation(t *testing.T) {
	fake := fake("fake", smoothRatio, nil)
	cases := []Config{
		{},
		{MaxError: 2},
		{Objective: FixedRatio(0.5)},
		{Objective: FixedRatio(1)},
		{Objective: FixedRatio(math.NaN())},
		{Objective: fixedRatio(10, 1.5)},
		{Objective: FixedRatio(10), MaxError: -1},
	}
	for _, cfg := range cases {
		if _, err := NewTuner(fake, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("config %+v: error %v, want ErrBadConfig", cfg, err)
		}
	}
	if _, err := NewTuner(nil, Config{Objective: FixedRatio(10)}); err == nil {
		t.Errorf("nil compressor should be rejected")
	}
	tu, err := NewTuner(fake, Config{Objective: FixedRatio(10)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tu.cfg
	if cfg.Objective.Tolerance != DefaultTolerance || cfg.Regions == 0 || cfg.MaxIterationsPerRegion == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if tu.compressor.Descriptor().Name != "fake" {
		t.Errorf("Compressor accessor wrong")
	}
}

func TestLossAndCutoff(t *testing.T) {
	obj := fixedRatio(10, 0.1)
	if obj.Loss(10) != 0 {
		t.Errorf("exact match should have zero loss")
	}
	if got := obj.Loss(12); got != 4 {
		t.Errorf("Loss(12) around 10 = %v, want 4", got)
	}
	if got := obj.Loss(math.Inf(1)); got != Gamma {
		t.Errorf("infinite ratio should clamp to gamma")
	}
	if got := obj.Loss(math.NaN()); got != Gamma {
		t.Errorf("NaN should clamp to gamma")
	}
	if got := obj.SearchCutoff(); math.Abs(got-1) > 1e-12 {
		t.Errorf("SearchCutoff of 10 ± 10%% = %v, want 1", got)
	}
}

func TestInBand(t *testing.T) {
	obj := fixedRatio(10, 0.1)
	if !obj.InBand(10) || !obj.InBand(9) || !obj.InBand(11) {
		t.Errorf("values inside the band misclassified")
	}
	if obj.InBand(8.9) || obj.InBand(11.1) {
		t.Errorf("values outside the band misclassified")
	}
}

func TestPropertyLossBounded(t *testing.T) {
	f := func(achieved, target float64) bool {
		l := FixedRatio(target).Loss(achieved)
		return l >= 0 && l <= Gamma
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTuneBufferFeasibleTarget(t *testing.T) {
	var calls int64
	fake := fake("fake", smoothRatio, &calls)
	// One worker, so that compressor calls can be counted against
	// Iterations: more workers also compress ahead, in regions the answer
	// does not rest on.
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), smallBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("target 20 should be feasible, got %+v", res)
	}
	if !fixedRatio(20, 0.1).InBand(res.AchievedRatio) {
		t.Errorf("achieved ratio %v outside band", res.AchievedRatio)
	}
	if res.ErrorBound <= 0 || res.ErrorBound > 2 {
		t.Errorf("recommended bound %v outside the search range", res.ErrorBound)
	}
	if res.Iterations <= 0 || int64(res.Iterations) != atomic.LoadInt64(&calls) {
		t.Errorf("iterations %d should equal compressor calls %d", res.Iterations, atomic.LoadInt64(&calls))
	}
	if res.Compressor != "fake" || res.Target != 20 {
		t.Errorf("result metadata wrong: %+v", res)
	}
}

func TestTuneBufferInfeasibleTargetReportsClosest(t *testing.T) {
	// The ratio curve saturates at 12, so a target of 50 is infeasible.
	fake := fake("fake", func(bound float64) float64 {
		return 1 + 11*bound/(bound+0.01)
	}, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(50, 0.05), MaxError: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), smallBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("target 50 should be infeasible, got %+v", res)
	}
	if res.AchievedRatio < 10 || res.AchievedRatio > 12.5 {
		t.Errorf("closest observed ratio should approach the saturation value, got %v", res.AchievedRatio)
	}
	for _, ev := range res.Evaluations {
		if math.Abs(ev.Ratio-50) < math.Abs(res.AchievedRatio-50) {
			t.Errorf("observed ratio %v is nearer the target than the reported %v", ev.Ratio, res.AchievedRatio)
		}
	}
	if len(res.Evaluations) == 0 {
		t.Fatalf("expected observed evaluations")
	}
}

func TestTuneBufferStepFunctionRatio(t *testing.T) {
	// Step-like curve imitating ZFP accuracy mode: only a few ratios are
	// reachable; the target of 16 sits on a plateau.
	fake := fake("fake-step", func(bound float64) float64 {
		return math.Pow(2, math.Floor(math.Log2(bound*1e4+1)))
	}, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(16, 0.1), MaxError: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), smallBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Errorf("plateau target should be found, got ratio %v", res.AchievedRatio)
	}
}

// dipRatio is a non-monotonic curve like SZ's (Fig. 3): it rises from 60
// with a dip to 45 around bound 0.25, the only place a target of 45 is met.
func dipRatio(bound float64) float64 {
	return 60 + 40*bound - 25*math.Exp(-(bound-0.25)*(bound-0.25)*200)
}

func TestTuneBufferNonMonotoneRatio(t *testing.T) {
	tu, err := NewTuner(fake("fake-dip", dipRatio, nil), Config{Objective: fixedRatio(45, 0.05), MaxError: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.SweepOnly().TuneBuffer(context.Background(), smallBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Errorf("target inside the dip should be reachable, got %v", res.AchievedRatio)
	}
}

func TestTuneWithPredictionReuse(t *testing.T) {
	var calls int64
	fake := fake("fake", smoothRatio, &calls)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(4096)
	first, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil || !first.Feasible {
		t.Fatalf("initial tuning failed: %+v err=%v", first, err)
	}
	atomic.StoreInt64(&calls, 0)
	second, err := tu.TuneWithPrediction(context.Background(), buf, first.ErrorBound)
	if err != nil {
		t.Fatal(err)
	}
	if !second.UsedPrediction || !second.Feasible {
		t.Errorf("prediction should be reused: %+v", second)
	}
	if second.Iterations != 1 {
		t.Errorf("prediction reuse should cost exactly one evaluation, got %d", second.Iterations)
	}
	// The tuner already measured this exact bound during training, so the
	// prediction evaluation is served from the evaluation cache without
	// invoking the compressor at all.
	if got := atomic.LoadInt64(&calls); got != 0 {
		t.Errorf("prediction reuse compressed %d times, want 0 (cache hit)", got)
	}
	if second.CacheHits != 1 || second.CacheMisses != 0 {
		t.Errorf("prediction reuse stats = %d hits / %d misses, want 1/0", second.CacheHits, second.CacheMisses)
	}
}

func TestTuneWithBadPredictionRetrains(t *testing.T) {
	fake := fake("fake", smoothRatio, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(20, 0.05), MaxError: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneWithPrediction(context.Background(), smallBuffer(4096), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPrediction {
		t.Errorf("a hopeless prediction should trigger retraining")
	}
	if !res.Feasible {
		t.Errorf("retraining should still find the target")
	}
	if len(res.Evaluations) < 2 || res.Evaluations[len(res.Evaluations)-1].Rung == RungReuse {
		t.Errorf("retraining should list its search after the prediction: %+v", res.Evaluations)
	}
}

// TestTuneWithPredictionRecordsEvaluationError pins the distinction between
// a prediction that missed the band (PredictionErr nil, retrain) and one the
// compressor failed to evaluate at all (PredictionErr records the cause).
func TestTuneWithPredictionRecordsEvaluationError(t *testing.T) {
	// A stand-in for a compressor whose parameter validation rejects a bound
	// that drifted out of range: here, below the search's floor (1e-9 of the
	// buffer's value range of about 2), so only a prediction can reach it.
	fake := failing(fake("fake-faulty", smoothRatio, nil), func(bound float64) bool { return bound < 1e-9 })
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(4096)

	// The prediction sits in the compressor's failing range: the evaluation
	// errors, the failure is recorded, and the tuner still retrains.
	res, err := tu.TuneWithPrediction(context.Background(), buf, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.PredictionErr, errFaulty) {
		t.Errorf("PredictionErr = %v, want the compressor failure", res.PredictionErr)
	}
	if res.UsedPrediction {
		t.Errorf("a failed prediction evaluation must not be reused")
	}
	if !res.Feasible {
		t.Errorf("retraining should still find the target: %+v", res)
	}

	// A prediction that evaluates fine but misses the band records no error.
	missed, err := tu.TuneWithPrediction(context.Background(), buf, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if missed.PredictionErr != nil {
		t.Errorf("a merely-missed prediction should not record an error, got %v", missed.PredictionErr)
	}
}

// TestTuneSeriesCountsPredictionErrors checks the series-level accounting:
// a step whose prediction evaluation fails increments PredictionErrors.
func TestTuneSeriesCountsPredictionErrors(t *testing.T) {
	// Step 0 trains normally. Step 1 uses a different buffer (so the
	// prediction evaluation cannot be served from the cache) and its first
	// compression — which is exactly the prediction evaluation — fails.
	var step atomic.Int64
	var failedOnce atomic.Bool
	comp := failing(fake("fake-series-faulty", smoothRatio, nil), func(float64) bool {
		return step.Load() == 1 && failedOnce.CompareAndSwap(false, true)
	})
	tu, err := NewTuner(comp, Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	out, err := tu.TuneSeries(context.Background(), Series{
		Field: "f",
		Steps: 2,
		At: func(i int) (pressio.Buffer, error) {
			step.Store(int64(i))
			return smallBuffer(4096 + i), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.PredictionErrors != 1 {
		t.Errorf("PredictionErrors = %d, want 1 (step 1's prediction failed to evaluate)", out.PredictionErrors)
	}
	if out.Steps[0].Result.PredictionErr != nil {
		t.Errorf("step 0 ran without a prediction, PredictionErr = %v", out.Steps[0].Result.PredictionErr)
	}
	if out.Steps[1].Result.PredictionErr == nil {
		t.Errorf("step 1 should record its prediction evaluation error")
	}
	if !out.Steps[1].Retrained {
		t.Errorf("step 1 should have retrained after the failed prediction")
	}
}

func TestTuneBufferUnsupportedShape(t *testing.T) {
	c, err := pressio.New("mgard:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: FixedRatio(10)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tu.TuneBuffer(context.Background(), smallBuffer(100)); err == nil {
		t.Errorf("1-D buffer should be rejected for mgard")
	}
}

func TestTuneSeriesRetrainsOnRegimeChange(t *testing.T) {
	// The ratio curve shifts abruptly at step 5, so the reused bound misses
	// the band there and the tuner must retrain.
	ratioAt := func(step int, bound float64) float64 {
		shift := 1.0
		if step >= 5 {
			shift = 3.0
		}
		return 1 + 63*bound/(bound+0.05*shift)/(2/(2+0.05*shift))
	}
	// The compressor changes per step via a closure over the step index, and
	// the data changes with the regime too (as it would in a real series —
	// the evaluation cache keys on the data fingerprint, so a regime change
	// with identical bytes would otherwise be served stale ratios).
	var stepIndex int
	fake := fake("fake", func(bound float64) float64 {
		return ratioAt(stepIndex, bound)
	}, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	calm := smallBuffer(4096)
	stormy := smallBuffer(4096)
	stormyData := stormy.Float32()
	for i := range stormyData {
		stormyData[i] *= 1.5
	}
	series := Series{
		Field: "synthetic",
		Steps: 10,
		At: func(i int) (pressio.Buffer, error) {
			stepIndex = i
			if i >= 5 {
				return stormy, nil
			}
			return calm, nil
		},
	}
	res, err := tu.TuneSeries(context.Background(), series)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 10 {
		t.Fatalf("expected 10 steps, got %d", len(res.Steps))
	}
	if res.Retrains < 2 {
		t.Errorf("expected at least the initial training plus the regime change, got %d retrains", res.Retrains)
	}
	if res.Retrains > 5 {
		t.Errorf("bound reuse should avoid retraining most steps, got %d retrains", res.Retrains)
	}
	if res.ConvergedSteps < 8 {
		t.Errorf("most steps should converge, got %d/10", res.ConvergedSteps)
	}
	if res.TotalIterations <= 0 {
		t.Errorf("total iterations not accumulated")
	}
}

func TestTuneSeriesValidation(t *testing.T) {
	fake := fake("fake", smoothRatio, nil)
	tu, _ := NewTuner(fake, Config{Objective: FixedRatio(10)})
	if _, err := tu.TuneSeries(context.Background(), Series{Field: "x", Steps: 0}); err == nil {
		t.Errorf("zero steps should fail")
	}
	if _, err := tu.TuneSeries(context.Background(), Series{Field: "x", Steps: 3, At: nil}); err == nil {
		t.Errorf("nil provider should fail")
	}
}

func TestTuneSeriesCancelled(t *testing.T) {
	fake := fake("fake", smoothRatio, nil)
	tu, _ := NewTuner(fake, Config{Objective: FixedRatio(10), MaxError: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tu.TuneSeries(ctx, Series{Field: "x", Steps: 3, At: func(i int) (pressio.Buffer, error) {
		return smallBuffer(256), nil
	}})
	if err == nil {
		t.Errorf("cancelled context should abort the series")
	}
}

// TestTuneCancelledOrUnsearchable pins what a run that could not finish
// returns. A search a cancelled context cut short returns the context's
// error, never a verdict on the data; a rung that settles the run without
// searching (here: a reused bound that lands in band) is not cut short by
// it; a configuration that admits no search returns no Result at all.
func TestTuneCancelledOrUnsearchable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tu, _ := NewTuner(fake("fake", smoothRatio, nil), Config{Objective: FixedRatio(20), MaxError: 2, Seed: 1})
	buf := smallBuffer(256)

	if res, err := tu.TuneBuffer(ctx, buf); !errors.Is(err, context.Canceled) || res.Feasible {
		t.Errorf("cancelled search: err = %v, feasible = %v, want context.Canceled and no verdict", err, res.Feasible)
	}

	found, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil || !found.Feasible {
		t.Fatalf("uncancelled search: %v, %+v", err, found)
	}
	reused, err := tu.TuneWithPrediction(ctx, buf, found.ErrorBound)
	if err != nil || !reused.UsedPrediction || reused.ErrorBound != found.ErrorBound {
		t.Errorf("reused bound under a cancelled context: err = %v, %+v", err, reused)
	}

	// A MaxError under the search's floor (1e-9 of the value range) leaves
	// nothing to search.
	empty, _ := NewTuner(fake("fake", smoothRatio, nil), Config{Objective: FixedRatio(20), MaxError: 1e-12})
	res, err := empty.TuneBuffer(context.Background(), buf)
	if !errors.Is(err, ErrBadConfig) || !reflect.DeepEqual(res, Result{}) {
		t.Errorf("empty range: err = %v, result %+v, want ErrBadConfig and the zero Result", err, res)
	}
}

func TestTuneFieldsParallel(t *testing.T) {
	fake := fake("fake", smoothRatio, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Seed: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(2048)
	mk := func(name string) Series {
		return Series{Field: name, Steps: 3, At: func(i int) (pressio.Buffer, error) { return buf, nil }}
	}
	results, err := tu.TuneFields(context.Background(), []Series{mk("a"), mk("b"), mk("c")})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("expected 3 series results")
	}
	for _, r := range results {
		if r.ConvergedSteps != 3 {
			t.Errorf("series %s: %d/3 converged", r.Field, r.ConvergedSteps)
		}
	}
}

func TestTuneRealSZOnSyntheticHurricane(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compressor tuning is slow")
	}
	d, err := dataset.New("Hurricane", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := d.Generate("TCf", 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pressio.NewBufferOf(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: fixedRatio(10, 0.1), Seed: 9, Regions: 6, MaxIterationsPerRegion: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("10:1 should be feasible for SZ on the hurricane field, got ratio %.2f", res.AchievedRatio)
	}
	// Verify independently that the recommended bound reproduces the ratio.
	ratio, _, err := pressio.Ratio(c, buf, res.ErrorBound)
	if err != nil {
		t.Fatal(err)
	}
	if !fixedRatio(10, 0.1).InBand(ratio) {
		t.Errorf("recommended bound %v re-evaluates to ratio %.2f outside the band", res.ErrorBound, ratio)
	}
}

func TestTuneRealZFPAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compressor tuning is slow")
	}
	d, err := dataset.New("NYX", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := d.Generate("temperature", 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pressio.NewBufferOf(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pressio.New("zfp:accuracy")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: fixedRatio(8, 0.2), Seed: 10, Regions: 6, MaxIterationsPerRegion: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	// ZFP accuracy mode expresses few ratios; with a 20% tolerance the
	// request should still generally be satisfiable. If not feasible, the
	// reported closest ratio must at least be positive and finite.
	if res.AchievedRatio <= 0 || math.IsInf(res.AchievedRatio, 0) {
		t.Errorf("nonsensical achieved ratio %v", res.AchievedRatio)
	}
	if res.Feasible && !fixedRatio(8, 0.2).InBand(res.AchievedRatio) {
		t.Errorf("feasible flag inconsistent with achieved ratio %v", res.AchievedRatio)
	}
}

// TestSweepDeterministicLowestRegionWins is the winner rule under the worst
// schedules: the ratio curve has an in-band bump in region 1 and another in
// region 4 of six, and every compression at a bound inside region 1 is held
// back until region 4 has measured the in-band ratio that makes it
// acceptable — with two workers, one of them held while the other walks
// regions 0, 2, 3 and 4; with eight, all six regions at once. The lower
// region must still win, and the result must be the one a single worker
// computes on an ungated codec — field for field, every entry of the list
// with its bound, value, rung and region, apart from the clock and which
// evaluations the cache answered.
func TestSweepDeterministicLowestRegionWins(t *testing.T) {
	twoBumps := func(bound float64) float64 {
		bump := func(c float64) float64 { return 15 * math.Exp(-(bound-c)*(bound-c)/(0.15*0.15)) }
		return 5 + bump(0.5) + bump(1.5)
	}
	cfg := Config{Objective: fixedRatio(20, 0.1), MaxError: 2, Regions: 6, Seed: 1}
	tune := func(c *pressio.Codec, workers int) Result {
		t.Helper()
		cfg := cfg
		cfg.Workers = workers
		tu, err := NewTuner(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.SweepOnly().TuneBuffer(context.Background(), smallBuffer(4096))
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed, res.CacheHits, res.CacheMisses = 0, 0, 0
		for i := range res.Evaluations {
			res.Evaluations[i].CacheHit = false
		}
		return res
	}
	want := tune(fake("fake", twoBumps, nil), 1)
	if n := len(want.Evaluations); !want.Feasible || n == 0 || want.Evaluations[0].Region != 0 || want.Evaluations[n-1].Region != 1 || want.ErrorBound > 0.7 {
		t.Fatalf("one worker should stop after region 1, at the lower bump: %+v", want)
	}

	for _, workers := range []int{2, 8} {
		// (0.36, 0.64) lies inside region 1 and clear of its neighbours'
		// ends — region 2 starts at 0.65, measured at the cache slot just
		// below, which would hold the second of two workers too; (1.35,
		// 1.65) likewise for region 4.
		highAccepted := make(chan struct{})
		var once sync.Once
		var held atomic.Int64
		watchdog := time.AfterFunc(30*time.Second, func() { once.Do(func() { close(highAccepted) }) })
		gated := fake("fake", twoBumps, nil)
		encode := gated.Encode
		gated.Encode = func(buf pressio.Buffer, bound float64) ([]byte, error) {
			if bound > 0.36 && bound < 0.64 {
				held.Add(1)
				<-highAccepted
			}
			out, err := encode(buf, bound)
			if ratio := float64(buf.Bytes()) / float64(len(out)); bound > 1.35 && bound < 1.65 && cfg.Objective.InBand(ratio) {
				once.Do(func() { close(highAccepted) })
			}
			return out, err
		}
		got := tune(gated, workers)
		if !watchdog.Stop() {
			t.Fatalf("%d workers: region 4 never measured an in-band ratio: the gate was opened by the watchdog", workers)
		}
		if held.Load() == 0 {
			t.Fatalf("%d workers: no compression of region 1 was held back: the schedule under test did not happen", workers)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers, high region accepted first:\n%+v\none worker:\n%+v", workers, got, want)
		}
	}
}

// TestEvaluationsListEveryCharge holds every registered codec × objective,
// with no prediction and then with a prediction that misses (1e-7, far below
// every band's bound, on the same tuner so the cache answers part of it), to
// one record: the list holds each evaluation the run is charged for, the
// counters are read off it, and the prediction was used exactly when the
// list opens with an in-band reuse probe.
func TestEvaluationsListEveryCharge(t *testing.T) {
	buf := sealTestBuffer(t)
	for _, codec := range pressio.Codecs() {
		for _, obj := range []Objective{FixedRatio(6), FixedPSNR(60), FixedSSIM(0.9), FixedMaxError(0.05)} {
			tu, err := NewTuner(codec, Config{Objective: obj, Regions: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, prediction := range []float64{0, 1e-7} {
				name := fmt.Sprintf("%s/%s/prediction=%g", codec.Name, obj.Name, prediction)
				res, err := tu.TuneWithPrediction(context.Background(), buf, prediction)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				hits := 0
				for i, ev := range res.Evaluations {
					if ev.CacheHit {
						hits++
					}
					if ev.stream != nil {
						t.Errorf("%s: entry %d still holds its stream", name, i)
					}
					if (ev.Rung == RungReuse) != (i == 0 && prediction > 0) {
						t.Errorf("%s: entry %d has rung %d: the reuse probe, and only it, comes first", name, i, ev.Rung)
					}
				}
				if len(res.Evaluations) != res.Iterations || res.CacheHits != hits || res.CacheMisses != res.Iterations-hits {
					t.Errorf("%s: %d entries, %d of them cache hits; result reads %d evaluations, %d hits, %d misses",
						name, len(res.Evaluations), hits, res.Iterations, res.CacheHits, res.CacheMisses)
				}
				reused := len(res.Evaluations) > 0 && res.Evaluations[0].Rung == RungReuse && tu.obj.InBand(res.Evaluations[0].Value)
				if res.UsedPrediction != reused {
					t.Errorf("%s: UsedPrediction %v, want %v", name, res.UsedPrediction, reused)
				}
				if prediction > 0 && !res.Direct && len(res.Evaluations) == 0 {
					t.Errorf("%s: the prediction was measured but not listed", name)
				}
			}
		}
	}
}
