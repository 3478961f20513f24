package fraz_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fraz"
	"fraz/internal/dataset"
)

// qualityBudget is the most evaluations a model-first tune may spend
// (core's modelProbeBudget, as users see it in CompressResult.Evaluations).
const qualityBudget = 8

// magnitudeCodecs lists the codecs whose parameter is an error magnitude —
// error-bounded and not lossless — which is where ratio, PSNR and max-error
// targets are tuned model first.
func magnitudeCodecs() []fraz.CodecInfo {
	var out []fraz.CodecInfo
	for _, ci := range fraz.Codecs() {
		if ci.ErrorBounded && !ci.Lossless {
			out = append(out, ci)
		}
	}
	return out
}

// valueRange is max − min of a field.
func valueRange[T fraz.Element](data []T) float64 {
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return float64(hi - lo)
}

// sealAndRemeasure compresses one field at either width, and for a feasible
// archive decompresses it and measures the objective on the reconstruction.
func sealAndRemeasure[T fraz.Element](t *testing.T, c *fraz.Client, obj fraz.Objective, data []T, shape []int) (res *fraz.CompressResult, archive []byte, measured float64, err error) {
	t.Helper()
	var buf bytes.Buffer
	if res, err = fraz.CompressT(context.Background(), c, &buf, data, shape); err != nil {
		return nil, nil, 0, err
	}
	archive = append([]byte(nil), buf.Bytes()...)
	dec, err := fraz.DecompressFull(context.Background(), &buf)
	if err != nil {
		t.Fatalf("archive does not decode: %v", err)
	}
	var rec []T
	switch any(data).(type) {
	case []float32:
		rec = any(dec.Data).([]T)
	default:
		rec = any(dec.Data64).([]T)
	}
	if measured, err = fraz.MeasureT(obj, data, rec, shape, dec.CompressedBytes); err != nil {
		t.Fatalf("re-measuring %s: %v", obj.Name(), err)
	}
	return res, archive, measured, nil
}

// jaggedCells are the cells of TestQualityBudgetConformance whose curve has
// teeth narrower than the band where the bracket closes, so that the model's
// eight probes end with the target still between two of them and the
// bisection that follows takes a few more to land on a tooth. On
// Hurricane/QRAINf mgard:abs measures a maximum error of 3.38e-6 at bound
// 2.700e-5, 3.83e-6 at 2.724e-5 and 6.90e-6 at 2.760e-5, around a band of
// 4.11e-6..5.03e-6; on CESM/PHIS mgard:l2 measures 29.51 at 7056, 29.58 at
// 7600 and 38.89 at 7808, around 30.89..37.75. Which side of a tooth a probe
// lands on follows from the last bits of its bound. These may exceed the
// budget, by no more than as much again; the band still binds them.
//
// The three ratio cells are fields of zeros with a few plumes, where
// mgard:l2's ratio has a floor the target sits on: on Hurricane/QCLOUDf it
// falls from 24.3 at 2.2e-10 to 18.4 at 6.1e-14 over the eight probes, each a
// step toward a band of 14.4..17.6 that only the bottom of the range, 17.50
// at 1e-24, is inside; the bisection's one evaluation finds it.
var jaggedCells = map[string]bool{
	"Hurricane/QRAINf/mgard:abs/max-error/f32": true,
	"Hurricane/QRAINf/mgard:abs/max-error/f64": true,
	"CESM/PHIS/mgard:l2/max-error/f32":         true,
	"CESM/PHIS/mgard:l2/max-error/f64":         true,
	"Hurricane/QCLOUDf/mgard:l2/ratio16/f32":   true,
	"Hurricane/QGRAUPf/mgard:l2/ratio16/f32":   true,
	"Hurricane/QSNOWf/mgard:l2/ratio16/f32":    true,
}

// steppedRatio names the codecs whose ratio curve on these 2,048-value fields
// is a staircase, so that every ratio cell of theirs is jagged. szx:abs
// stores a block of 128 values as one constant as soon as the bound covers the
// block's spread: sixteen blocks, at most sixteen steps, most of them within
// a few per cent of one bound. On HACC/y it reads 1.99 at bound 3.13, 5.14 at
// 4.03, 8.52 at 4.11, 14.1 at 4.20, 24.9 at 4.41 and 40.4 from 4.44 up; the
// probes bracket that cliff and the bisection picks the step out of it.
var steppedRatio = map[string]bool{"szx:abs": true}

// TestQualityBudgetConformance is the model-first path's contract, cell by
// cell: every error-magnitude codec × {psnr, max-error, ratio 8, ratio 16} ×
// {float32, float64} on every field of the repo's datasets either seals an
// archive that re-measures inside the requested band, for at most
// qualityBudget evaluations, or fails with ErrInfeasible. A feasible answer
// that took more evaluations than the budget is a failure here — jaggedCells
// apart, and those within twice the budget: none may need the region-search
// fallback, which is for targets no bound reaches. The quality cells seal in
// the default configuration, blocks tuned on the middle one. A ratio is a
// property of the bytes, not of the values, so a block's ratio is not the
// archive's: the ratio cells seal monolithic, so that what was tuned is what
// is sealed, and on one worker, so that the evaluations logged for them are
// what the runs were billed and not what a second worker ran ahead in a sweep.
func TestQualityBudgetConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes every error-magnitude codec × model-first objective × width × dataset field")
	}
	type tally struct{ feasible, cells, evaluations int }
	tallies := map[string]*tally{}
	for _, ds := range dataset.All(dataset.ScaleTiny) {
		for _, field := range ds.FieldNames() {
			f32, shape, err := ds.Generate(field, 0)
			if err != nil {
				t.Fatal(err)
			}
			f64, _, err := ds.Generate64(field, 0)
			if err != nil {
				t.Fatal(err)
			}
			objectives := []fraz.Objective{fraz.FixedPSNR(60), fraz.FixedMaxError(1e-2 * valueRange(f64)), fraz.FixedRatio(8), fraz.FixedRatio(16)}
			for _, ci := range magnitudeCodecs() {
				if !ci.SupportsRank(len(shape)) {
					continue
				}
				for _, obj := range objectives {
					label := obj.Name()
					if label == "ratio" {
						label = fmt.Sprintf("ratio%g", obj.Target())
					}
					if tallies[obj.Name()] == nil {
						tallies[obj.Name()] = &tally{}
					}
					sum := tallies[obj.Name()]
					for _, bits := range []int{32, 64} {
						name := fmt.Sprintf("%s/%s/%s/%s/f%d", ds.Name, field, ci.Name, label, bits)
						t.Run(name, func(t *testing.T) {
							opts := []fraz.Option{fraz.Target(obj)}
							if obj.Name() == "ratio" {
								opts = append(opts, fraz.Blocks(1), fraz.Workers(1))
							}
							c, err := fraz.New(ci.Name, opts...)
							if err != nil {
								t.Fatal(err)
							}
							var res *fraz.CompressResult
							var measured float64
							if bits == 64 {
								res, _, measured, err = sealAndRemeasure(t, c, obj, f64, []int(shape))
							} else {
								res, _, measured, err = sealAndRemeasure(t, c, obj, f32, []int(shape))
							}
							sum.cells++
							stats := c.Stats()
							sum.evaluations += int(stats.Hits + stats.Misses)
							if errors.Is(err, fraz.ErrInfeasible) {
								return
							}
							if err != nil {
								t.Fatal(err)
							}
							sum.feasible++
							budget := qualityBudget
							if jaggedCells[name] || (obj.Name() == "ratio" && steppedRatio[ci.Name]) {
								budget *= 2
							}
							if res.Evaluations > budget {
								t.Errorf("feasible after %d evaluations, budget is %d", res.Evaluations, budget)
							}
							if bandLo, bandHi := obj.Band(); measured < bandLo || measured > bandHi {
								t.Errorf("re-measured %s %v outside the requested band [%v, %v]", obj.Name(), measured, bandLo, bandHi)
							}
						})
					}
				}
			}
		}
	}
	for name, sum := range tallies {
		t.Logf("%s: %d of %d cells feasible, %d evaluations in all", name, sum.feasible, sum.cells, sum.evaluations)
		if sum.feasible*2 < sum.cells {
			t.Errorf("%s: only %d of %d cells were feasible: the table no longer exercises the model-first path", name, sum.feasible, sum.cells)
		}
	}
}

// qualityCell names one (codec, field, target) tune on a tiny dataset field.
type qualityCell struct {
	codec, dataset, field string
	// psnr > 0 targets that many decibels; otherwise maxErr is the
	// max-error target as a share of the field's value range.
	psnr, maxErr float64
}

func (q qualityCell) load(t *testing.T) ([]float32, []int, fraz.Objective) {
	t.Helper()
	ds, err := dataset.New(q.dataset, dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := ds.Generate(q.field, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.psnr > 0 {
		return data, []int(shape), fraz.FixedPSNR(q.psnr)
	}
	return data, []int(shape), fraz.FixedMaxError(q.maxErr * valueRange(data))
}

// TestQualityCellsStayFeasible pins cells the region search found feasible
// before the model-first path existed (PR 14's tree, 100–270 evaluations
// each). They are chosen where the model is least at home: sz:rel's
// range-relative and mgard:l2's squared parameter, curves that start on a
// saturated plateau, zfp's and szx's staircases.
func TestQualityCellsStayFeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a dozen fields")
	}
	cells := []qualityCell{
		{codec: "sz:abs", dataset: "Hurricane", field: "CLOUDf", psnr: 60},
		{codec: "sz:abs", dataset: "HACC", field: "x", psnr: 80},
		{codec: "sz:rel", dataset: "HACC", field: "x", psnr: 80},
		{codec: "sz:rel", dataset: "NYX", field: "temperature", maxErr: 1e-2},
		{codec: "zfp:accuracy", dataset: "NYX", field: "temperature", psnr: 50},
		{codec: "zfp:accuracy", dataset: "EXAALT", field: "x", psnr: 80},
		{codec: "zfp:accuracy", dataset: "HACC", field: "x", maxErr: 1e-3},
		{codec: "mgard:abs", dataset: "CESM", field: "CLDHGH", maxErr: 1e-2},
		{codec: "mgard:l2", dataset: "CESM", field: "CLDHGH", psnr: 80},
		{codec: "mgard:l2", dataset: "Hurricane", field: "CLOUDf", maxErr: 1e-2},
		{codec: "szx:abs", dataset: "HACC", field: "x", psnr: 50},
		{codec: "szx:abs", dataset: "NYX", field: "temperature", psnr: 60},
	}
	for _, q := range cells {
		t.Run(fmt.Sprintf("%s/%s/%s/psnr%g/maxerr%g", q.codec, q.dataset, q.field, q.psnr, q.maxErr), func(t *testing.T) {
			data, shape, obj := q.load(t)
			c, err := fraz.New(q.codec, fraz.Target(obj))
			if err != nil {
				t.Fatal(err)
			}
			res, _, measured, err := sealAndRemeasure(t, c, obj, data, shape)
			if err != nil {
				t.Fatalf("feasible before the model-first path, now: %v", err)
			}
			if res.Evaluations > qualityBudget {
				t.Errorf("took %d evaluations, budget is %d", res.Evaluations, qualityBudget)
			}
			if lo, hi := obj.Band(); measured < lo || measured > hi {
				t.Errorf("re-measured %s %v outside [%v, %v]", obj.Name(), measured, lo, hi)
			}
		})
	}
}

// TestQualityStaircaseStaysInfeasible is the fallback's regression test.
// szx:abs on Hurricane/CLOUDf measures 72.42 dB on one step of its PSNR
// staircase and 27.02 dB on the next; nothing lies in 50 dB ± 5 %. The
// model-first probes close on that edge, the region search runs after them,
// and the caller is told what it was told before the model-first path
// existed: ErrInfeasible, closest value the 72.42 dB step.
func TestQualityStaircaseStaysInfeasible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full region search of round trips")
	}
	data, shape, obj := qualityCell{codec: "szx:abs", dataset: "Hurricane", field: "CLOUDf", psnr: 50}.load(t)
	c, err := fraz.New("szx:abs", fraz.Target(obj))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Compress(context.Background(), &bytes.Buffer{}, data, shape)
	var inf *fraz.InfeasibleError
	if !errors.As(err, &inf) || !errors.Is(err, fraz.ErrInfeasible) {
		t.Fatalf("Compress = %v, want ErrInfeasible", err)
	}
	const parentClosest = 72.42280177208018 // PR 14's tree, at any seed and worker count
	if math.Abs(inf.ClosestValue-parentClosest) > 1e-9 {
		t.Errorf("closest value %v, want %v as before", inf.ClosestValue, parentClosest)
	}
	if stats := c.Stats(); stats.Evaluations <= qualityBudget {
		t.Errorf("only %d evaluations ran: the region-search fallback was skipped", stats.Evaluations)
	}
}

// TestRatioStaircaseNeedsNoRetry: zfp:accuracy's ratio is a staircase in the
// bound, a step per power of two, and which step the region sweep settled on,
// after how many evaluations — on some fields, whether it found one at all —
// followed its seed; callers retried on another. The field is 64×64×64,
// tuned on the middle of two blocks as the default configuration does on one
// processor, and the target is what a monolithic seal at 1e-2 of the range
// achieves. The model-first probes are sequential and unseeded: every seed
// gets the same bound for the same evaluations, first time.
func TestRatioStaircaseNeedsNoRetry(t *testing.T) {
	ds, err := dataset.New("NYX", dataset.ScaleMedium)
	if err != nil {
		t.Fatal(err)
	}
	data, dims, err := ds.Generate("temperature", 0)
	if err != nil {
		t.Fatal(err)
	}
	shape := []int(dims)
	ref, err := fraz.New("zfp:accuracy", fraz.FixedBound(1e-2*valueRange(data)), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := ref.Compress(context.Background(), &bytes.Buffer{}, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	var first *fraz.CompressResult
	for seed := int64(1); seed <= 40; seed++ {
		c, err := fraz.New("zfp:accuracy", fraz.Ratio(sealed.Ratio), fraz.Seed(seed), fraz.Blocks(2), fraz.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Compress(context.Background(), &bytes.Buffer{}, data, shape)
		if err != nil {
			t.Errorf("seed %d: ratio %.2f, reached at bound %v, was not found: %v", seed, sealed.Ratio, sealed.ErrorBound, err)
			continue
		}
		if first == nil {
			first = res
		}
		if res.ErrorBound != first.ErrorBound || res.Evaluations != first.Evaluations || res.Evaluations > qualityBudget {
			t.Errorf("seed %d: bound %v after %d evaluations, seed 1 %v after %d (budget %d)",
				seed, res.ErrorBound, res.Evaluations, first.ErrorBound, first.Evaluations, qualityBudget)
		}
	}
}

// TestQualityTuneDeterministicAcrossWorkers is the contract that an archive
// is a function of the data and the options alone, for every objective (the
// name dates from when only the quality objectives kept it): the model-first
// search is sequential, and the region sweep answers what one worker would
// have found however many speculate ahead of it. Every cell — three codecs ×
// the four objectives × a monolithic and a four-block seal (pinned: the
// default block count follows Workers) — is sealed at 1, 2, 4 and 8 workers,
// and must give byte-identical archives for the same number of evaluations,
// or, where no bound reaches the band, the same closest value. Every feasible
// cell but SSIM's — ratio, PSNR and max-error alike — must be settled model
// first, within its budget, and so by no seed at all: those get another seed
// at each worker count above one. An infeasible cell's closest value is the
// sweep's, which reads the seed, and keeps the one it has. One more cell
// seals a four-block float64 archive that misses the band and is corrected:
// szx:abs at 6 ± 20 % on testField64, whose blocks compress unlike the one
// the bound is first tuned on; its budget is a stepped curve's, twice the
// model's, and covers the corrective tune.
func TestQualityTuneDeterministicAcrossWorkers(t *testing.T) {
	field, fieldShape := tinyField(t)
	objectives := []fraz.Objective{fraz.FixedRatio(12), fraz.FixedRatio(30), fraz.FixedSSIM(0.9), fraz.FixedPSNR(60), fraz.FixedMaxError(0.05)}
	for _, codec := range []string{"sz:abs", "mgard:abs", "zfp:accuracy"} {
		for _, obj := range objectives {
			for _, blocks := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s%g/blocks%d", codec, obj.Name(), obj.Target(), blocks), func(t *testing.T) {
					data, shape := field, fieldShape
					if obj.Name() == "ssim" {
						// An SSIM cell is a hundred round trips at each worker
						// count and the race job runs the table twenty times:
						// the field's two lowest levels, as one 32×16 image.
						data, shape = field[:32*16], []int{32, 16}
					}
					sameAtEveryWorkerCount(t, codec, obj, blocks, qualityBudget, data, shape)
				})
			}
		}
	}
	t.Run("szx:abs/ratio6/blocks4/f64", func(t *testing.T) {
		data, shape := testField64()
		sameAtEveryWorkerCount(t, "szx:abs", fraz.FixedRatio(6).WithTolerance(0.2), 4, 2*qualityBudget, data, shape)
	})
}

// sameAtEveryWorkerCount seals one cell of
// TestQualityTuneDeterministicAcrossWorkers at 1, 2, 4 and 8 workers.
func sameAtEveryWorkerCount[T fraz.Element](t *testing.T, codec string, obj fraz.Objective, blocks, budget int, data []T, shape []int) {
	t.Helper()
	type outcome struct {
		archive     [sha256.Size]byte
		evaluations int
		closest     float64
	}
	modelFirst := obj.Name() != "ssim"
	var want outcome
	for i, workers := range []int{1, 2, 4, 8} {
		opts := []fraz.Option{fraz.Target(obj), fraz.Blocks(blocks), fraz.Workers(workers), fraz.Regions(6)}
		if modelFirst && want.evaluations > 0 {
			// Feasible at one worker, so within the budget: the model
			// settled it, and no seed is read.
			opts = append(opts, fraz.Seed(int64(workers)))
		}
		c, err := fraz.New(codec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var got outcome
		res, archive, _, err := sealAndRemeasure(t, c, obj, data, shape)
		var inf *fraz.InfeasibleError
		switch {
		case errors.As(err, &inf):
			got.closest = inf.ClosestValue
		case err != nil:
			t.Fatalf("at %d workers: %v", workers, err)
		case modelFirst && res.Evaluations > budget:
			t.Fatalf("at %d workers took %d evaluations: not the model-first path", workers, res.Evaluations)
		default:
			got.archive, got.evaluations = sha256.Sum256(archive), res.Evaluations
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("at %d workers: archive %x after %d evaluations (closest %v), at 1 worker %x after %d (closest %v)",
				workers, got.archive[:8], got.evaluations, got.closest, want.archive[:8], want.evaluations, want.closest)
		}
	}
	t.Logf("%d evaluations (0: infeasible, closest %v)", want.evaluations, want.closest)
}

// TestConformance is the promise, row by row: every cell of pinCells —
// every registered codec × {ratio, psnr, ssim, max-error} × {float32,
// float64} × {1, 4} blocks — fails with ErrInfeasible or seals an archive
// that, decompressed and measured again (fraz.MeasureT, the ratio from
// CompressedBytes), lies in the requested band. The archive keeps its element
// width and the layout asked for (a quality objective seals one block), an
// error-bounded codec holds the sealed bound at every value, and a quality
// archive records an objective whose band the measured value is in. Which
// cells seal and which are infeasible is TestArchiveDigests' to pin.
func TestConformance(t *testing.T) {
	for _, p := range pinCells() {
		t.Run(p.String(), func(t *testing.T) {
			_, res, archive, ok, err := p.seal(t)
			switch {
			case !ok:
				t.Skip("the client refuses this cell")
			case errors.Is(err, fraz.ErrInfeasible):
				return
			case err != nil:
				t.Fatal(err)
			}
			data32, shape := testField()
			if p.bits == 64 {
				data64, _ := testField64()
				conform(t, p, res, archive, data64, shape)
			} else {
				conform(t, p, res, archive, data32, shape)
			}
		})
	}
}

// conform checks one sealed cell of TestConformance.
func conform[T fraz.Element](t *testing.T, p pinCell, res *fraz.CompressResult, archive []byte, data []T, shape []int) {
	t.Helper()
	full, err := fraz.DecompressFull(context.Background(), bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := any(full.Data).([]T)
	if p.bits == 64 {
		rec, _ = any(full.Data64).([]T)
	}
	if full.DType != fmt.Sprintf("float%d", p.bits) || len(rec) != len(data) || len(full.Data)+len(full.Data64) != len(data) {
		t.Fatalf("decoded %s with %d float32 and %d float64 values, want %d at float%d",
			full.DType, len(full.Data), len(full.Data64), len(data), p.bits)
	}
	blocks, version := p.blocks, 2
	if p.obj.Name() != "ratio" {
		blocks = 1
	}
	if blocks == 1 {
		version = 1
	}
	if res.Blocks != blocks || full.Blocks != blocks || full.Version != version {
		t.Errorf("sealed %d blocks, decoded %d from a v%d archive; want %d in v%d", res.Blocks, full.Blocks, full.Version, blocks, version)
	}

	obj := p.obj
	if p.obj.Name() == "ratio" {
		if full.Objective != nil || res.Ratio != full.Ratio || res.AchievedValue != full.Ratio {
			t.Errorf("ratio archive: record %+v, header ratio %v, CompressResult ratio %v and achieved %v",
				full.Objective, full.Ratio, res.Ratio, res.AchievedValue)
		}
	} else {
		// Measured under the objective the archive records, not the one
		// asked for: a holder of the data needs nothing else.
		if full.Objective == nil || res.Objective != p.obj.Name() || res.AchievedValue != full.Objective.Achieved {
			t.Fatalf("quality archive records %+v; CompressResult says %s achieved %v", full.Objective, res.Objective, res.AchievedValue)
		}
		if obj, err = fraz.ObjectiveByName(full.Objective.Name, full.Objective.Target); err != nil {
			t.Fatal(err)
		}
	}
	measured, err := fraz.MeasureT(obj, data, rec, shape, full.CompressedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := p.obj.Band(); measured < lo || measured > hi || (full.Objective != nil && !full.Objective.InBand(measured)) {
		t.Errorf("archive measures %s %v, outside [%v, %v] (recorded %+v)", p.obj.Name(), measured, lo, hi, full.Objective)
	}

	if !p.codec.ErrorBounded || p.codec.Lossless || strings.Contains(p.codec.BoundName, "mean-squared") {
		return // a rate, a precision, or an MSE budget bounds no single value
	}
	worst, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for i := range data {
		v := float64(data[i])
		worst, lo, hi = math.Max(worst, math.Abs(v-float64(rec[i]))), math.Min(lo, v), math.Max(hi, v)
	}
	bound := res.ErrorBound
	if strings.Contains(p.codec.BoundName, "relative") {
		bound *= hi - lo
	}
	if p.bits == 32 {
		// Narrowing to float32 rounds on top of what the codec guarantees.
		bound += math.Max(math.Abs(lo), math.Abs(hi)) * 1e-6
	}
	if worst > bound {
		t.Errorf("max pointwise error %v exceeds the sealed %s %v", worst, p.codec.BoundName, res.ErrorBound)
	}
}
