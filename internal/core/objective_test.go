package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fraz/internal/dataset"
	"fraz/internal/pressio"
)

func nyxBuffer(t *testing.T) pressio.Buffer {
	t.Helper()
	return datasetBuffer(t, "NYX", "velocity_x")
}

// datasetBuffer generates step 0 of one tiny dataset field.
func datasetBuffer(t *testing.T, name, field string) pressio.Buffer {
	t.Helper()
	d, err := dataset.New(name, dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := d.Generate(field, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := pressio.NewBufferOf(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestObjectiveToleranceSemantics pins the uniform tolerance contract: ratio
// and PSNR bands are fractional (target·(1±ε)), SSIM and max-error bands are
// absolute (target±ε), and each objective's default band is sane — in
// particular the SSIM default no longer collapses toward zero the way the
// old quality fork's "2% of target magnitude" rule did for small targets.
func TestObjectiveToleranceSemantics(t *testing.T) {
	cases := []struct {
		name         string
		obj          Objective
		wantRelative bool
		wantTol      float64
		wantLo       float64
		wantHi       float64
	}{
		{"ratio default", FixedRatio(10), true, DefaultTolerance, 9, 11},
		{"psnr default", FixedPSNR(60), true, DefaultPSNRTolerance, 57, 63},
		{"ssim default", FixedSSIM(0.95), false, DefaultSSIMTolerance, 0.93, 0.97},
		{"max-error default", FixedMaxError(0.01), false, 0.001, 0.009, 0.011},
		{"psnr explicit", withTolerance(FixedPSNR(80), 0.1), true, 0.1, 72, 88},
		{"ssim explicit", withTolerance(FixedSSIM(0.5), 0.05), false, 0.05, 0.45, 0.55},
		{"max-error explicit", withTolerance(FixedMaxError(2), 0.5), false, 0.5, 1.5, 2.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.obj.WithDefaults()
			if err := o.validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if o.Relative != tc.wantRelative {
				t.Errorf("Relative = %v, want %v", o.Relative, tc.wantRelative)
			}
			if math.Abs(o.Tolerance-tc.wantTol) > 1e-12 {
				t.Errorf("Tolerance = %v, want %v", o.Tolerance, tc.wantTol)
			}
			lo, hi := o.Band()
			if math.Abs(lo-tc.wantLo) > 1e-9 || math.Abs(hi-tc.wantHi) > 1e-9 {
				t.Errorf("Band() = [%v, %v], want [%v, %v]", lo, hi, tc.wantLo, tc.wantHi)
			}
			if !o.InBand(tc.obj.Target) {
				t.Errorf("target %v not in its own band", tc.obj.Target)
			}
			if o.InBand(tc.wantHi + math.Abs(tc.wantHi)*1e-6 + 1e-9) {
				t.Errorf("value above band accepted")
			}
			if o.InBand(math.NaN()) {
				t.Errorf("NaN accepted as in band")
			}
			// HalfWidth is the absolute band half-width either way.
			if hw := o.HalfWidth(); math.Abs(hw-(tc.wantHi-tc.wantLo)/2) > 1e-9 {
				t.Errorf("HalfWidth = %v, want %v", hw, (tc.wantHi-tc.wantLo)/2)
			}
			// The search cutoff is the squared half-width.
			if co := o.SearchCutoff(); math.Abs(co-o.HalfWidth()*o.HalfWidth()) > 1e-9*co {
				t.Errorf("SearchCutoff = %v, want %v", co, o.HalfWidth()*o.HalfWidth())
			}
		})
	}
}

func withTolerance(o Objective, tol float64) Objective {
	o.Tolerance = tol
	return o
}

func TestObjectiveValidation(t *testing.T) {
	bad := []struct {
		name string
		obj  Objective
	}{
		{"no name", Objective{Target: 1, Tolerance: 0.1, Achieved: func(Evaluation) float64 { return 0 }}},
		{"no extractor", Objective{Name: "x", Target: 1, Tolerance: 0.1}},
		{"NaN target", withTolerance(FixedPSNR(math.NaN()), 0.1)},
		{"Inf target", withTolerance(FixedPSNR(math.Inf(1)), 0.1)},
		{"ratio at 1", FixedRatio(1)},
		{"relative negative target", withTolerance(FixedPSNR(-10), 0.1)},
		{"relative tolerance >= 1", withTolerance(FixedRatio(10), 1)},
		{"negative tolerance", withTolerance(FixedSSIM(0.9), -0.1)},
	}
	for _, tc := range bad {
		o := tc.obj
		if o.Tolerance == 0 {
			o = o.WithDefaults()
		}
		if err := o.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", tc.name, o)
		}
	}
	// NewTuner surfaces objective validation as ErrBadConfig.
	c, _ := pressio.New("sz:abs")
	if _, err := NewTuner(c, Config{Objective: FixedSSIM(math.NaN())}); err == nil {
		t.Errorf("NewTuner accepted a NaN objective target")
	}
}

// TestTunerObjectiveResolution pins how Config.Objective resolves: an
// explicit tolerance is kept, a zero one takes the objective's default, and
// the effective Config carries the resolved objective.
func TestTunerObjectiveResolution(t *testing.T) {
	c, _ := pressio.New("sz:abs")
	tu, err := NewTuner(c, Config{Objective: fixedRatio(12, 0.05)})
	if err != nil {
		t.Fatal(err)
	}
	obj := tu.obj
	if obj.Name != "ratio" || obj.Target != 12 || obj.Tolerance != 0.05 || !obj.Relative {
		t.Errorf("ratio objective resolved to %+v", obj)
	}
	tu, err = NewTuner(c, Config{Objective: FixedRatio(8)})
	if err != nil {
		t.Fatal(err)
	}
	if obj := tu.cfg.Objective; obj.Target != 8 || obj.Tolerance != DefaultTolerance {
		t.Errorf("default-tolerance ratio objective resolved to %v ± %v", obj.Target, obj.Tolerance)
	}
	tu, err = NewTuner(c, Config{Objective: FixedPSNR(60)})
	if err != nil {
		t.Fatal(err)
	}
	if obj := tu.obj; obj.Name != "psnr" || obj.Tolerance != DefaultPSNRTolerance {
		t.Errorf("psnr objective resolved to %+v", obj)
	}
}

func TestTunePSNRTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	buf := nyxBuffer(t)
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	obj := FixedPSNR(60)
	tu, err := NewTuner(c, Config{Objective: obj, Regions: 6, MaxIterationsPerRegion: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("a 60 dB PSNR target should be reachable, got %+v", res)
	}
	if res.Objective != "psnr" || res.Target != 60 {
		t.Errorf("result objective metadata wrong: %q target %v", res.Objective, res.Target)
	}
	if !tu.obj.InBand(res.AchievedValue) {
		t.Errorf("achieved PSNR %v outside the band", res.AchievedValue)
	}
	// Verify independently: compressing at the recommended bound reproduces
	// a PSNR equal to the reported one.
	full, err := pressio.Run(c, buf, res.ErrorBound)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.PSNR-res.AchievedValue) > 1e-6 {
		t.Errorf("re-evaluated PSNR %v differs from reported %v", full.PSNR, res.AchievedValue)
	}
	if res.AchievedRatio <= 1 {
		t.Errorf("achieved ratio should show real compression, got %v", res.AchievedRatio)
	}
	if res.Iterations <= 0 || res.Compressor != "sz:abs" {
		t.Errorf("result metadata wrong: %+v", res)
	}
}

func TestTuneSSIMTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	buf := nyxBuffer(t)
	c, err := pressio.New("zfp:accuracy")
	if err != nil {
		t.Fatal(err)
	}
	obj := FixedSSIM(0.95)
	obj.Tolerance = 0.03
	tu, err := NewTuner(c, Config{Objective: obj, Regions: 4, MaxIterationsPerRegion: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedValue <= 0 || res.AchievedValue > 1 {
		t.Errorf("SSIM out of range: %v", res.AchievedValue)
	}
	if res.Feasible && math.Abs(res.AchievedValue-0.95) > 0.03 {
		t.Errorf("feasible flag inconsistent with achieved SSIM %v", res.AchievedValue)
	}
}

// TestTuneQualityPrefersHigherRatioAmongAcceptable: with a very loose band
// many bounds are acceptable; the tuner must pick one with a higher ratio
// than a needlessly tight bound would give.
func TestTuneQualityPrefersHigherRatioAmongAcceptable(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	buf := nyxBuffer(t)
	c, _ := pressio.New("sz:abs")
	obj := FixedPSNR(70)
	obj.Tolerance = 0.35 // anything from 45.5 to 94.5 dB is acceptable
	tu, err := NewTuner(c, Config{Objective: obj, Regions: 4, MaxIterationsPerRegion: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("wide acceptance band should be feasible: %+v", res)
	}
	tinyRatio, _, err := pressio.Ratio(c, buf, res.ErrorBound/100)
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedRatio < tinyRatio {
		t.Errorf("selected ratio %.2f should beat the ratio of a needlessly tight bound %.2f", res.AchievedRatio, tinyRatio)
	}
}

// TestQualityTuneSeriesReusesBoundsAndCache pins the two reuse layers the
// old quality fork lacked: time-step prediction reuse (steps after the first
// skip the search) and the shared evaluation cache (repeat probes of a
// quantized bound are served without re-running the round trip).
func TestQualityTuneSeriesReusesBoundsAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	buf := nyxBuffer(t)
	c, _ := pressio.New("sz:abs")
	tu, err := NewTuner(c, Config{Objective: FixedPSNR(60), Regions: 4, MaxIterationsPerRegion: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := Series{
		Field: "NYX/velocity_x",
		Steps: 3,
		At:    func(int) (pressio.Buffer, error) { return buf, nil },
	}
	out, err := tu.TuneSeries(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Retrains != 1 {
		t.Errorf("identical steps should reuse the first step's bound: %d retrains", out.Retrains)
	}
	if out.CacheHits == 0 {
		t.Errorf("quality TuneSeries with reuse recorded no cache hits (misses=%d)", out.CacheMisses)
	}
}

// TestTuneFieldsBoundedCacheMemory is the eviction acceptance test: a long
// TuneFields run over many distinct fields, all sharing one small cache,
// must not grow the cache past its cap (the old behaviour accumulated one
// entry per evaluated bound per field, without limit).
func TestTuneFieldsBoundedCacheMemory(t *testing.T) {
	const cap = 16
	cache := pressio.NewCacheSized(cap)
	fake := fake("fake", smoothRatio, nil)
	// One worker: the cap binds completed entries, and an evaluation in
	// flight is never evicted — with W workers there are up to W fields × W
	// regions of those, which on a large machine is more than this cap.
	tu, err := NewTuner(fake, Config{Objective: FixedRatio(10), Seed: 13, Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	series := make([]Series, 8)
	for i := range series {
		i := i
		series[i] = Series{
			Field: "field",
			Steps: 2,
			At: func(step int) (pressio.Buffer, error) {
				// Distinct data per field and step: every buffer fingerprints
				// differently, so nothing is shared and the cache would grow
				// without bound if nothing evicted.
				buf := smallBuffer(256)
				data := buf.Float32()
				for j := range data {
					data[j] += float32(i*100 + step)
				}
				return buf, nil
			},
		}
	}
	if _, err := tu.TuneFields(context.Background(), series); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got > cap {
		t.Errorf("cache grew to %d entries, cap is %d", got, cap)
	}
	if _, _, evictions := cache.Stats(); evictions == 0 {
		t.Errorf("a 16-buffer TuneFields run against a %d-entry cache evicted nothing (len=%d)", cap, cache.Len())
	}
}

// TestInfeasibleQualityError checks the generalized infeasible reporting: a
// quality target no bound can reach surfaces the objective name and closest
// value.
func TestInfeasibleQualityError(t *testing.T) {
	res := Result{
		Compressor:    "sz:abs",
		Objective:     "psnr",
		Target:        500,
		Tolerance:     0.05,
		AchievedValue: 180,
		AchievedRatio: 1.2,
		ErrorBound:    1e-9,
	}
	err := res.Check()
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("Check() = %v, want *InfeasibleError", err)
	}
	if ie.Objective != "psnr" || ie.Target != 500 || ie.ClosestValue != 180 {
		t.Errorf("infeasible fields: %+v", ie)
	}
	if msg := err.Error(); !strings.Contains(msg, "psnr") || !strings.Contains(msg, "180") {
		t.Errorf("error message should name the objective and closest value: %q", msg)
	}
}

// TestSSIMObjectiveRejectsUnmeasurableRank pins the fail-fast contract: an
// SSIM target on 1-D data must be rejected before any round trip runs, not
// burn the whole search budget measuring NaNs.
func TestSSIMObjectiveRejectsUnmeasurableRank(t *testing.T) {
	c, _ := pressio.New("sz:abs")
	tu, err := NewTuner(c, Config{Objective: FixedSSIM(0.95), Regions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tu.TuneBuffer(context.Background(), smallBuffer(4096))
	if err == nil || !strings.Contains(err.Error(), "not measurable") {
		t.Errorf("1-D SSIM tune err = %v, want an upfront not-measurable rejection", err)
	}
	// PSNR has no rank restriction: the same 1-D buffer tunes fine.
	tu, err = NewTuner(c, Config{Objective: FixedPSNR(60), Regions: 2, MaxIterationsPerRegion: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tu.TuneBuffer(context.Background(), smallBuffer(4096)); err != nil {
		t.Errorf("1-D PSNR tune failed: %v", err)
	}
}
