package core

import (
	"context"
	"math"
	"slices"
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

// stages splits a result's list into its search stages: the runs of entries
// one rung — for the sweep, one region — asked for.
func stages(res Result) [][]Evaluation {
	var out [][]Evaluation
	for i, ev := range res.Evaluations {
		if i == 0 || ev.Rung != res.Evaluations[i-1].Rung || ev.Region != res.Evaluations[i-1].Region {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], ev)
	}
	return out
}

// inBand reports whether any of evs landed in obj's band.
func inBand(obj Objective, evs []Evaluation) bool {
	return slices.ContainsFunc(evs, func(ev Evaluation) bool { return obj.InBand(ev.Value) })
}

// TestModelSearchResultShape checks how a model-first hit is reported — one
// stage of model probes in order, every probe billed once — and that neither
// the worker count nor the seed has a say in the outcome.
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
		if st := stages(res); len(st) != 1 || st[0][0].Rung != RungModel || len(st[0]) != res.Iterations || !inBand(tu.obj, st[0]) {
			t.Errorf("want one in-band stage of model probes holding all %d evaluations, got %+v", res.Iterations, res.Evaluations)
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
	st := stages(res)
	if len(st) != 1+1+4 || st[0][0].Rung != RungModel || st[1][0].Rung != RungBisect || st[2][0].Rung != RungSweep || st[5][0].Region != 3 {
		t.Fatalf("want the model probes, the bisection and 4 searched regions, got %d stages", len(st))
	}
	if closing := st[1]; len(closing) > DefaultMaxIterationsPerRegion || inBand(tu.obj, closing) {
		t.Errorf("bisection: %d evaluations, acceptable=%v", len(closing), inBand(tu.obj, closing))
	}
	probes := st[0]
	if n := len(probes); n < 2 || n > modelProbeBudget || inBand(tu.obj, probes) {
		t.Errorf("model probes: %d, acceptable=%v", n, inBand(tu.obj, probes))
	}
	if res.Iterations <= modelProbeBudget {
		t.Errorf("fallback did not search: %d evaluations", res.Iterations)
	}
	if res.Iterations != res.CacheHits+res.CacheMisses {
		t.Errorf("iterations %d != hits %d + misses %d", res.Iterations, res.CacheHits, res.CacheMisses)
	}
	for _, ev := range res.Evaluations {
		if math.Abs(ev.Value-50) < math.Abs(res.AchievedValue-50) {
			t.Errorf("observed value %v is nearer the target than the reported %v", ev.Value, res.AchievedValue)
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
		if st := stages(res); len(res.Evaluations) != res.Iterations || len(st) != 2 || len(st[0]) != 1 || st[0][0].Rung != RungReuse || st[1][0].Rung != RungModel {
			t.Fatalf("%s: every evaluation of the retrain, the prediction and then the model probes, should be listed once: %d evaluations, list %+v", obj.Name, res.Iterations, res.Evaluations)
		}
		if got, want := res.Evaluations[0].ErrorBound, out.Steps[1].Result.ErrorBound; got != want {
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
		reused := 0
		for _, ev := range res.Evaluations {
			if ev.Rung == RungReuse {
				reused++
			}
		}
		if res.Iterations != len(res.Evaluations) || res.Evaluations[0].Rung != RungReuse || reused != 1 {
			t.Errorf("%s: %d evaluations billed, want the prediction's one, first, and the searches' after it: %+v", c.codec.Name, res.Iterations, res.Evaluations)
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
	st := stages(res)
	probes, last := st[0], st[len(st)-1]
	if n := len(probes); probes[0].Rung != RungModel || n > modelProbeBudget || inBand(tu.obj, probes) {
		t.Errorf("model probes: %d, acceptable=%v", n, inBand(tu.obj, probes))
	}
	if len(st) < 2 || last[0].Rung != RungSweep || !inBand(tu.obj, last) {
		t.Errorf("the sweep should end the run on an acceptable region: %+v", last)
	}
	sweepOnly, err := tu.SweepOnly().TuneBuffer(context.Background(), smallBuffer(8192))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != sweepOnly.ErrorBound || res.Iterations != len(probes)+sweepOnly.Iterations {
		t.Errorf("bound %v in %d evaluations, want the sweep's %v in its %d and the %d probes",
			res.ErrorBound, res.Iterations, sweepOnly.ErrorBound, sweepOnly.Iterations, len(probes))
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
	st := stages(res)
	if probes := st[0]; probes[0].Rung != RungModel || len(probes) > modelProbeBudget || inBand(tu.obj, probes) {
		t.Errorf("model probes: %d, acceptable=%v", len(probes), inBand(tu.obj, probes))
	}
	if n := len(st); n < 5 || st[n-4][0].Rung != RungSweep || st[n-4][0].Region != 0 || st[n-1][0].Region != 3 {
		t.Fatalf("want the model probes and 4 searched regions, got %d stages", n)
	}
	for _, ev := range res.Evaluations {
		if math.Abs(ev.Ratio-40) < math.Abs(res.AchievedRatio-40) {
			t.Errorf("observed ratio %v is nearer the target than the reported %v", ev.Ratio, res.AchievedRatio)
		}
	}
}
