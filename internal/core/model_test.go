package core

import (
	"context"
	"math"
	"testing"

	"fraz/internal/pressio"
)

// TestModelFirstSelection pins which objective × codec pairs take the
// model-first search: PSNR and max-error on the six codecs whose parameter
// is an error magnitude, and nothing else.
func TestModelFirstSelection(t *testing.T) {
	magnitude := map[string]bool{
		"sz:abs": true, "sz:rel": true, "zfp:accuracy": true,
		"mgard:abs": true, "mgard:l2": true, "szx:abs": true,
	}
	modelled := map[string]bool{"psnr": true, "max-error": true}
	for _, codec := range pressio.Codecs() {
		for _, obj := range []Objective{FixedRatio(8), FixedPSNR(60), FixedSSIM(0.9), FixedMaxError(0.1)} {
			tu, err := NewTuner(codec, Config{Objective: obj})
			if err != nil {
				t.Fatal(err)
			}
			if want := magnitude[codec.Name] && modelled[obj.Name]; tu.modelFirst != want {
				t.Errorf("%s × %s: model first = %v, want %v", codec.Name, obj.Name, tu.modelFirst, want)
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
// the whole step inside the probe budget.
func TestTuneSeriesRetrainStartsFromMissedPrediction(t *testing.T) {
	calm := nyxBuffer(t)
	loud := nyxBuffer(t)
	for i, v := range loud.Float32() {
		loud.Float32()[i] = v * 30 // +29.5 dB at an unchanged bound
	}
	c, _ := pressio.New("sz:abs")
	tu, err := NewTuner(c, Config{Objective: FixedPSNR(60)})
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
		t.Fatalf("want 3 converged steps, retrains at 0 and 2: %+v", out)
	}
	if reused := out.Steps[1]; reused.Retrained || reused.Result.Iterations != 1 {
		t.Errorf("the unchanged step should reuse the bound in one evaluation: %+v", reused)
	}
	jump := out.Steps[2]
	res := jump.Result
	if !jump.Retrained || res.UsedPrediction || res.PredictionErr != nil {
		t.Fatalf("the jump should force a retrain: %+v", jump)
	}
	if res.Iterations < 2 || res.Iterations > modelProbeBudget {
		t.Errorf("retrain cost %d evaluations, want 2..%d", res.Iterations, modelProbeBudget)
	}
	if len(res.Regions) != 1 || len(res.Regions[0].Evaluations) != res.Iterations {
		t.Fatalf("every evaluation of the retrain, the prediction included, should be listed once: %d evaluations, regions %+v", res.Iterations, res.Regions)
	}
	if got, want := res.Regions[0].Evaluations[0].ErrorBound, out.Steps[1].Result.ErrorBound; got != want {
		t.Errorf("first point of the retrain is bound %v, want the missed prediction %v", got, want)
	}
	if res.Iterations != res.CacheHits+res.CacheMisses {
		t.Errorf("iterations %d != hits %d + misses %d", res.Iterations, res.CacheHits, res.CacheMisses)
	}
}
