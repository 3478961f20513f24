package core

import (
	"context"
	"math"
	"testing"

	"fraz/internal/grid"
	"fraz/internal/pressio"
)

// TestModelFirstSelection pins which objective × codec pairs take the
// model-first search: ratio, PSNR and max-error on the six codecs whose
// parameter is an error magnitude, and nothing else — nor any of them through
// SweepOnly.
func TestModelFirstSelection(t *testing.T) {
	magnitude := map[string]bool{
		"sz:abs": true, "sz:rel": true, "zfp:accuracy": true,
		"mgard:abs": true, "mgard:l2": true, "szx:abs": true,
	}
	modelled := map[string]bool{"ratio": true, "psnr": true, "max-error": true}
	for _, codec := range pressio.Codecs() {
		for _, obj := range []Objective{FixedRatio(8), FixedPSNR(60), FixedSSIM(0.9), FixedMaxError(0.1)} {
			tu, err := NewTuner(codec, Config{Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			if want := magnitude[codec.Name] && modelled[obj.Name]; tu.modelFirst != want {
				t.Errorf("%s × %s: model first = %v, want %v", codec.Name, obj.Name, tu.modelFirst, want)
			}
			if tu.SweepOnly().modelFirst {
				t.Errorf("%s × %s: SweepOnly still tries the model first", codec.Name, obj.Name)
			}
		}
	}
}

// TestModelSearchResultShape checks how a model-first hit is reported — one
// region entry holding the probes in order, every probe billed once — and
// that neither the worker count nor the seed has a say in the outcome.
func TestModelSearchResultShape(t *testing.T) {
	buf := nyxBuffer(t)
	c, _ := pressio.New("mgard:abs")
	var first Result
	for i, cfg := range []Config{{Workers: 1, Seed: 1}, {Workers: 4, Seed: 99}} {
		cfg.Objective = FixedPSNR(60)
		tu, err := NewTuner(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.TuneBuffer(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Feasible || !tu.obj.InBand(res.AchievedValue) {
			t.Fatalf("60 dB on mgard:abs should be reachable: %+v", res)
		}
		if res.Iterations < 1 || res.Iterations > modelProbeBudget {
			t.Errorf("model-first tune cost %d evaluations, want 1..%d", res.Iterations, modelProbeBudget)
		}
		if len(res.Regions) != 1 || len(res.Regions[0].Evaluations) != res.Iterations || !res.Regions[0].Acceptable {
			t.Errorf("want one acceptable region entry holding all %d probes, got %+v", res.Iterations, res.Regions)
		}
		if res.Iterations != res.CacheHits+res.CacheMisses {
			t.Errorf("iterations %d != hits %d + misses %d", res.Iterations, res.CacheHits, res.CacheMisses)
		}
		if i == 0 {
			first = res
		} else if res.ErrorBound != first.ErrorBound || res.Iterations != first.Iterations {
			t.Errorf("workers/seed changed the outcome: bound %v in %d vs %v in %d", res.ErrorBound, res.Iterations, first.ErrorBound, first.Iterations)
		}
	}
}

// TestModelSearchFallsBackToRegions drives the fallback: szx:abs's PSNR is
// a staircase in the bound, and on Hurricane/CLOUDf no step lies in the band
// around 50 dB. The probes bracket the step edge, the bisection closes the
// bracket on it, the region search runs after them, and the verdict is the
// region search's: infeasible, with the closest value taken over everything
// observed.
func TestModelSearchFallsBackToRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("the fallback is a full region search of round trips")
	}
	buf := datasetBuffer(t, "Hurricane", "CLOUDf")
	c, _ := pressio.New("szx:abs")
	tu, err := NewTuner(c, Config{Objective: FixedPSNR(50), Regions: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("no szx:abs step reaches 50 dB ± 5%% on CLOUDf, got %+v", res)
	}
	if len(res.Regions) != 1+1+4 {
		t.Fatalf("want the model entry, the bisection and 4 searched regions, got %d entries", len(res.Regions))
	}
	if closing := res.Regions[1]; closing.Iterations == 0 || closing.Iterations > DefaultMaxIterationsPerRegion || closing.Acceptable {
		t.Errorf("bisection: %d evaluations, acceptable=%v", closing.Iterations, closing.Acceptable)
	}
	probes := res.Regions[0]
	if n := len(probes.Evaluations); n < 2 || n > modelProbeBudget || probes.Acceptable {
		t.Errorf("model entry: %d probes, acceptable=%v", n, probes.Acceptable)
	}
	if res.Iterations <= modelProbeBudget {
		t.Errorf("fallback did not search: %d evaluations", res.Iterations)
	}
	if res.Iterations != res.CacheHits+res.CacheMisses {
		t.Errorf("iterations %d != hits %d + misses %d", res.Iterations, res.CacheHits, res.CacheMisses)
	}
	for _, rr := range res.Regions {
		for _, ev := range rr.Evaluations {
			if math.Abs(ev.Value-50) < math.Abs(res.AchievedValue-50) {
				t.Errorf("observed value %v is nearer the target than the reported %v", ev.Value, res.AchievedValue)
			}
		}
	}
}

// TestTuneSeriesRetrainStartsFromMissedPrediction: when a field jumps between
// steps the reused bound misses, and its evaluation is the first point of
// the model-first retrain rather than being thrown away — billed once, and
// the whole step inside the probe budget. The same for the ratio, whose
// model has no bound of its own to start from.
func TestTuneSeriesRetrainStartsFromMissedPrediction(t *testing.T) {
	calm := nyxBuffer(t)
	loud := nyxBuffer(t)
	for i, v := range loud.Float32() {
		loud.Float32()[i] = v * 30 // +29.5 dB, and five bits a value, at an unchanged bound
	}
	c, _ := pressio.New("sz:abs")
	for _, obj := range []Objective{FixedPSNR(60), FixedRatio(10)} {
		tu, err := NewTuner(c, Config{Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		steps := []pressio.Buffer{calm, calm, loud}
		out, err := tu.TuneSeries(context.Background(), Series{
			Field: "NYX/velocity_x", Steps: len(steps),
			At: func(i int) (pressio.Buffer, error) { return steps[i], nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.ConvergedSteps != 3 || out.Retrains != 2 {
			t.Fatalf("%s: want 3 converged steps, retrains at 0 and 2: %+v", obj.Name, out)
		}
		if reused := out.Steps[1]; reused.Retrained || reused.Result.Iterations != 1 {
			t.Errorf("%s: the unchanged step should reuse the bound in one evaluation: %+v", obj.Name, reused)
		}
		jump := out.Steps[2]
		res := jump.Result
		if !jump.Retrained || res.UsedPrediction || res.PredictionErr != nil {
			t.Fatalf("%s: the jump should force a retrain: %+v", obj.Name, jump)
		}
		if res.Iterations < 2 || res.Iterations > modelProbeBudget {
			t.Errorf("%s: retrain cost %d evaluations, want 2..%d", obj.Name, res.Iterations, modelProbeBudget)
		}
		if len(res.Regions) != 1 || len(res.Regions[0].Evaluations) != res.Iterations {
			t.Fatalf("%s: every evaluation of the retrain, the prediction included, should be listed once: %d evaluations, regions %+v", obj.Name, res.Iterations, res.Regions)
		}
		if got, want := res.Regions[0].Evaluations[0].ErrorBound, out.Steps[1].Result.ErrorBound; got != want {
			t.Errorf("%s: first point of the retrain is bound %v, want the missed prediction %v", obj.Name, got, want)
		}
		if res.Iterations != res.CacheHits+res.CacheMisses {
			t.Errorf("%s: iterations %d != hits %d + misses %d", obj.Name, res.Iterations, res.CacheHits, res.CacheMisses)
		}
	}
}

// TestMissedPredictionIsOfferedToThePick: a reused bound that was measured
// and missed is an evaluation the run paid for, so it must be what an
// infeasible result reports when nothing the sweep saw came nearer — on a run
// with no model stage to list it (a bit-count parameter, as zfp:rate's), and
// on one whose model stage has no bound to aim at (a constant field, whose
// value range has no logarithm). The curve saturates at 12 apart from one
// spike to 30, at the predicted bound; the target is 50.
func TestMissedPredictionIsOfferedToThePick(t *testing.T) {
	const predicted = 7.3
	spike := func(bound float64) float64 {
		if math.Abs(bound-predicted) < 0.05 {
			return 30
		}
		return 1 + 11*bound/(bound+0.01)
	}
	bits := fake("fake-spike-bits", spike, nil)
	bits.Param = pressio.Param{Name: "fake bits", Unit: pressio.UnitBits, Lo: 1, Hi: 32}
	constant, err := pressio.NewBufferOf(make([]float32, 4096), grid.MustDims(4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		codec      *pressio.Codec
		buf        pressio.Buffer
		modelFirst bool
	}{
		{bits, smallBuffer(4096), false},
		{fake("fake-spike", spike, nil), constant, true},
	} {
		tu, err := NewTuner(c.codec, Config{Objective: fixedRatio(50, 0.05), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tu.modelFirst != c.modelFirst {
			t.Fatalf("%s: model first = %v, want %v", c.codec.Name, tu.modelFirst, c.modelFirst)
		}
		res, err := tu.TuneWithPrediction(context.Background(), c.buf, predicted)
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible || res.UsedPrediction {
			t.Fatalf("%s: 50 is out of reach and the prediction missed: %+v", c.codec.Name, res)
		}
		if math.Abs(res.AchievedRatio-30) > 0.5 || math.Abs(res.ErrorBound-predicted) > 0.05 {
			t.Errorf("%s: closest is ratio %v at bound %v, want the prediction's 30 at %v", c.codec.Name, res.AchievedRatio, res.ErrorBound, predicted)
		}
		listed := 0
		for _, rr := range res.Regions {
			listed += rr.Iterations
		}
		if res.Iterations != listed+1 {
			t.Errorf("%s: %d evaluations billed, want the prediction's one and the searches' %d", c.codec.Name, res.Iterations, listed)
		}
	}
}

// TestRatioModelFallsBackOnNonMonotoneCurve drives the ratio's fallback chain
// on a curve the model cannot follow: every probe of dipRatio reads above the
// target and the steps toward it run out of range, nothing brackets the
// target for the bisection, and the sweep finds the dip — with the probes
// listed ahead of its regions and billed with them.
func TestRatioModelFallsBackOnNonMonotoneCurve(t *testing.T) {
	tu, err := NewTuner(fake("fake-dip", dipRatio, nil), Config{Objective: fixedRatio(45, 0.05), MaxError: 0.5, Seed: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), smallBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("target inside the dip should be reachable, got %v", res.AchievedRatio)
	}
	probes, last := res.Regions[0], res.Regions[len(res.Regions)-1]
	if n := len(probes.Evaluations); n == 0 || n > modelProbeBudget || probes.Acceptable {
		t.Errorf("model entry: %d probes, acceptable=%v", n, probes.Acceptable)
	}
	if len(res.Regions) < 2 || last.Region.Upper == 0 || !last.Acceptable {
		t.Errorf("the sweep should end the run on an acceptable region: %+v", last)
	}
	sweepOnly, err := tu.SweepOnly().TuneBuffer(context.Background(), smallBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != sweepOnly.ErrorBound || res.Iterations != probes.Iterations+sweepOnly.Iterations {
		t.Errorf("bound %v in %d evaluations, want the sweep's %v in its %d and the %d probes",
			res.ErrorBound, res.Iterations, sweepOnly.ErrorBound, sweepOnly.Iterations, probes.Iterations)
	}
}

// TestRatioModelFallsBackOnRealSZ is the same chain on real data: sz:abs on
// Hurricane/CLOUDf saturates near 32, so at a target of 40 the probes run
// into the top of the range, the bisection has no gap to close, the sweep
// searches every region, and the verdict is infeasible with the closest
// ratio taken over everything observed.
func TestRatioModelFallsBackOnRealSZ(t *testing.T) {
	buf := hurricaneBuffer(t)
	c, _ := pressio.New("sz:abs")
	tu, err := NewTuner(c, Config{Objective: FixedRatio(40), Regions: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tu.TuneBuffer(context.Background(), buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("sz:abs does not reach 40 on CLOUDf, got %+v", res)
	}
	if probes := res.Regions[0]; len(probes.Evaluations) == 0 || len(probes.Evaluations) > modelProbeBudget || probes.Acceptable {
		t.Errorf("model entry: %d probes, acceptable=%v", len(probes.Evaluations), probes.Acceptable)
	}
	if n := len(res.Regions); n < 5 || res.Regions[n-4].Region.Upper == 0 || res.Regions[n-1].Iterations == 0 {
		t.Fatalf("want the model entry and 4 searched regions, got %d entries", n)
	}
	for _, rr := range res.Regions {
		for _, ev := range rr.Evaluations {
			if math.Abs(ev.Ratio-40) < math.Abs(res.AchievedRatio-40) {
				t.Errorf("observed ratio %v is nearer the target than the reported %v", ev.Ratio, res.AchievedRatio)
			}
		}
	}
}
