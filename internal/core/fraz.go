// Package core implements FRaZ itself: the fixed-ratio autotuning framework
// of the paper. Given an error-bounded lossy compressor (through the
// pressio abstraction), a target compression ratio ρt, and an acceptance
// tolerance ε, it searches the compressor's error-bound parameter until the
// achieved ratio ρr lands inside [ρt(1−ε), ρt(1+ε)], optionally subject to a
// maximum allowed compression error U (the paper's Eq. 1 and Eq. 2).
//
// The search follows the paper's design:
//
//   - the loss function is the clamped quadratic
//     l(e) = min((ρr(D,e) − ρt)², γ)   (§V-B2);
//   - each region of the error-bound range is searched with the Dlib-style
//     global minimiser (MaxLIPO + trust region) with an early-termination
//     cutoff of ε²ρt² (§V-B3, Algorithm 1);
//   - the range is split into K slightly overlapping regions searched in
//     parallel, and outstanding regions are cancelled as soon as one region
//     finds an acceptable bound (Algorithm 2, Fig. 5);
//   - multiple time-steps of a field reuse the previously found bound and
//     retrain only when the reused bound falls outside the acceptance band,
//     and different fields are tuned in parallel (Algorithm 3, §V-C).
//
// When no error bound in the admissible range reaches the target band, FRaZ
// reports the closest ratio it observed and marks the result infeasible,
// leaving the decision of relaxing ε or U (or switching compressors) to the
// user, exactly as §V-B3 prescribes.
//
// Which search a tuning run takes, and over what interval, follows from the
// objective and the codec's descriptor (pressio.Codec), never from a setting
// or a codec's name:
//
//   - the parameter is searched in its own unit (Tuner.searchRange): an
//     error magnitude over an interval scaled to the data's value range, a
//     bit count over its declared domain whatever the data's scale;
//   - FixedRatio on a true fixed-rate codec (one with a Size: frsz:rate) is
//     satisfied directly, by arithmetic, with no evaluation;
//   - FixedPSNR and FixedMaxError on a codec whose parameter is an error
//     magnitude (pressio.Unit.IsError: sz:abs, sz:rel, zfp:accuracy,
//     mgard:abs, mgard:l2, szx:abs) are tuned model first (model.go): the
//     objective's closed form names the first bound and a sequential
//     bracket corrects a miss, within eight evaluations; the region search
//     above is its fallback, for staircase curves and unreachable targets;
//   - everything else — FixedRatio, FixedSSIM, and any objective on
//     zfp:rate, zfp:precision or frsz:rate — takes the region search.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"fraz/internal/metrics"
	"fraz/internal/optim"
	"fraz/internal/parallel"
	"fraz/internal/pressio"
)

// DefaultTolerance is the default fractional acceptance tolerance ε.
const DefaultTolerance = 0.1

// DefaultMaxIterationsPerRegion caps the optimizer iterations within one
// error-bound region. The paper limits iterations rather than wall time
// because compression time varies too much across datasets (§V-C).
const DefaultMaxIterationsPerRegion = 24

// Gamma is the clamp applied to the quadratic loss: 80% of the largest
// representable double, as in §V-B2.
var Gamma = 0.8 * math.MaxFloat64

// Config controls a Tuner.
type Config struct {
	// Objective is the quantity the search drives the error bound toward,
	// with its target and acceptance band: FixedRatio(ρt) is the paper's
	// fixed-ratio objective. Required.
	Objective Objective
	// MaxError is U, the maximum allowed pointwise compression error, in the
	// data's units. When zero, the default upper bound is used: the value
	// range of the data, which is the largest error bound any of the
	// compressors accepts meaningfully. searchRange restates it in the codec's
	// parameter unit; NewTuner rejects it for a bit count, which has none.
	MaxError float64
	// LowerBound overrides the smallest pointwise error searched, in the
	// data's units like MaxError. When zero, a small fraction (1e-9) of the
	// data's value range is used.
	LowerBound float64
	// Regions is K, the number of overlapping error-bound regions searched
	// in parallel. Zero selects parallel.DefaultRegions (12).
	Regions int
	// Overlap is the fractional overlap between adjacent regions. Zero
	// selects parallel.DefaultOverlap (10%).
	Overlap float64
	// MaxIterationsPerRegion caps optimizer iterations per region. Zero
	// selects DefaultMaxIterationsPerRegion.
	MaxIterationsPerRegion int
	// Workers bounds the number of concurrently searched regions (and, in
	// TuneFields, concurrently tuned fields). Zero uses GOMAXPROCS.
	Workers int
	// Seed makes the search deterministic.
	Seed int64
	// Cache memoises compressor evaluations across the K overlapping region
	// searches (and across tuning runs, when shared between tuners). Nil
	// gives the tuner a private cache.
	Cache *pressio.Cache
}

func (c Config) withDefaults() Config {
	if c.Regions <= 0 {
		c.Regions = parallel.DefaultRegions
	}
	if c.Overlap <= 0 {
		c.Overlap = parallel.DefaultOverlap
	}
	if c.MaxIterationsPerRegion <= 0 {
		c.MaxIterationsPerRegion = DefaultMaxIterationsPerRegion
	}
	return c
}

// ErrBadConfig is returned for invalid tuner configuration.
var ErrBadConfig = errors.New("fraz: invalid configuration")

// Evaluation records one compressor invocation during the search.
type Evaluation struct {
	// ErrorBound is the bound handed to the compressor.
	ErrorBound float64
	// Ratio is the achieved compression ratio.
	Ratio float64
	// CompressedSize is the compressed size in bytes.
	CompressedSize int
	// Value is the tuned objective's achieved value at ErrorBound (equal to
	// Ratio for the fixed-ratio objective).
	Value float64
	// Report carries the full quality metrics when the objective required a
	// compress+decompress round trip; nil for compress-only evaluations.
	Report *metrics.Report
}

// RegionResult summarises the search within one error-bound region.
type RegionResult struct {
	Region      parallel.Region
	Iterations  int
	Best        Evaluation
	Acceptable  bool
	Started     bool
	Err         error
	Evaluations []Evaluation
}

// Result is the outcome of tuning one field/time-step.
type Result struct {
	// Compressor is the name of the tuned compressor.
	Compressor string
	// Objective names the tuned objective ("ratio", "psnr", "ssim",
	// "max-error") and Target its requested value.
	Objective string
	Target    float64
	// TargetRatio echoes Target for the fixed-ratio objective (zero
	// otherwise); Tolerance is the objective's acceptance half-width
	// (fractional for ratio/PSNR, absolute for SSIM/max-error).
	TargetRatio float64
	Tolerance   float64
	// ErrorBound is the recommended error bound setting.
	ErrorBound float64
	// AchievedValue is the objective's value at ErrorBound (equal to
	// AchievedRatio for the fixed-ratio objective).
	AchievedValue float64
	// AchievedRatio is ρr at the recommended bound, whatever the objective.
	AchievedRatio float64
	// CompressedSize is the compressed size at the recommended bound.
	CompressedSize int
	// Feasible is true when the achieved value lies in the acceptance band.
	Feasible bool
	// Iterations is the total number of compressor invocations performed.
	Iterations int
	// Direct is true when the objective was satisfied directly from codec
	// capability — a fixed-rate codec's size formula inverted into its
	// bits-per-value parameter — with zero search evaluations: Iterations
	// is 0, Regions is empty, and ErrorBound holds the whole-bit rate.
	Direct bool
	// UsedPrediction is true when a reused bound from a previous time-step
	// satisfied the target without retraining.
	UsedPrediction bool
	// PredictionErr records the error of the prediction evaluation when one
	// was tried and the compressor failed on it. It distinguishes "the
	// reused bound missed the acceptance band" (nil, retrained normally)
	// from "the compressor could not evaluate the reused bound at all",
	// which TuneSeries reporting would otherwise conflate.
	PredictionErr error
	// CacheHits counts evaluations served from the shared evaluation cache
	// without invoking the compressor; CacheMisses counts the evaluations
	// that were not (those that compressed, plus failed evaluations).
	// Iterations = CacheHits + CacheMisses.
	CacheHits   int
	CacheMisses int
	// Regions reports the per-region search results (empty when the
	// prediction was reused). A model-first run lists its probes, in probe
	// order, as the first entry; the regions of a fallback search follow.
	Regions []RegionResult
	// Elapsed is the wall-clock tuning time.
	Elapsed time.Duration
}

// InBand reports whether a ratio lies within the acceptance band around the
// target, i.e. ρt(1−ε) ≤ ratio ≤ ρt(1+ε) (Eq. 1).
func InBand(ratio, target, tolerance float64) bool {
	return ratio >= target*(1-tolerance) && ratio <= target*(1+tolerance)
}

// Loss is the paper's clamped-quadratic loss l(e) = min((ρr − ρt)², γ).
func Loss(achieved, target, gamma float64) float64 {
	d := achieved - target
	v := d * d
	if v > gamma || math.IsNaN(v) {
		return gamma
	}
	return v
}

// Cutoff returns the early-termination threshold ε²ρt² used by the modified
// global minimiser (§V-B3).
func Cutoff(target, tolerance float64) float64 {
	return tolerance * tolerance * target * target
}

// Tuner searches error bounds for one compressor.
type Tuner struct {
	compressor pressio.Compressor
	// codec is the compressor's descriptor, the source of every static fact
	// the tuner acts on: parameter domain, rank window, fixed-rate size.
	codec *pressio.Codec
	cfg   Config
	obj   Objective
	cache *pressio.Cache
	// modelFirst selects the predict-then-bracket search of model.go ahead
	// of the region search. It follows from the objective and the codec: an
	// objective that is monotone in the bound with a closed-form model,
	// preferring the highest in-band ratio (which is what places the aim), on
	// a codec whose parameter is an error magnitude.
	modelFirst bool
}

// NewTuner validates the configuration and returns a Tuner.
func NewTuner(c pressio.Compressor, cfg Config) (*Tuner, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil compressor", ErrBadConfig)
	}
	obj := cfg.Objective.WithDefaults()
	if err := obj.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.MaxError < 0 {
		return nil, fmt.Errorf("%w: max error must be >= 0, got %v", ErrBadConfig, cfg.MaxError)
	}
	codec := c.Descriptor()
	if codec.Param.Unit.IsBitCount() && (cfg.MaxError > 0 || cfg.LowerBound > 0) {
		return nil, fmt.Errorf("%w: %s is tuned in %s, which a maximum or minimum error in data units cannot limit",
			ErrBadConfig, codec.Name, codec.Param.Name)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = pressio.NewCache()
	}
	cfg = cfg.withDefaults()
	cfg.Objective = obj
	first := obj.LogBoundFor != nil && obj.PreferRatio && codec.Param.Unit.IsError()
	return &Tuner{compressor: c, codec: codec, cfg: cfg, obj: obj, cache: cache, modelFirst: first}, nil
}

// Compressor returns the compressor being tuned.
func (t *Tuner) Compressor() pressio.Compressor { return t.compressor }

// Objective returns the resolved objective the tuner searches for.
func (t *Tuner) Objective() Objective { return t.obj }

// Cache returns the evaluation cache the tuner records compressor
// evaluations in (the one from Config.Cache, or the private default).
func (t *Tuner) Cache() *pressio.Cache { return t.cache }

// Config returns the effective (defaulted) configuration.
func (t *Tuner) Config() Config { return t.cfg }

// searchRange determines the parameter interval [lo, hi] searched for a
// buffer, in the parameter's own units. An error magnitude is searched from
// a small fraction of the data's value range up to the user's U (or the
// whole range) — pointwise errors in data units, squared for a squared-error
// parameter and divided by the range for a range-relative one — capped by
// the codec's declared domain. Any other parameter has nothing to do with
// the data's scale and is searched over its declared domain.
func (t *Tuner) searchRange(buf pressio.Buffer) (float64, float64, error) {
	p := t.codec.Param
	lo, hi := p.Lo, p.Hi
	if p.Unit.IsError() {
		vr := buf.ValueRange()
		if vr <= 0 {
			vr = 1
		}
		eLo, eHi := t.cfg.LowerBound, t.cfg.MaxError
		if eLo <= 0 {
			eLo = vr * 1e-9
		}
		if eHi <= 0 {
			eHi = vr
		}
		switch p.Unit {
		case pressio.UnitSquaredError:
			eLo, eHi = eLo*eLo, eHi*eHi
		case pressio.UnitRangeFraction:
			eLo, eHi = eLo/vr, eHi/vr
		}
		lo, hi = math.Max(lo, eLo), math.Min(hi, eHi)
	}
	if !(lo < hi) {
		return 0, 0, fmt.Errorf("%w: empty range [%v, %v] for %s", ErrBadConfig, lo, hi, p.Name)
	}
	return lo, hi, nil
}

// TuneBuffer tunes a single field/time-step buffer with no prediction
// (Algorithms 1 and 2).
func (t *Tuner) TuneBuffer(ctx context.Context, buf pressio.Buffer) (Result, error) {
	return t.TuneWithPrediction(ctx, buf, 0)
}

// measure returns the single black-box evaluation the search performs for
// the tuner's objective: a cached compression for the fixed-ratio objective,
// a cached compress+decompress round trip (with the full metric report) for
// quality objectives. Either way the returned Evaluation carries the bound
// the measurement actually ran at and the objective's achieved Value.
func (t *Tuner) measure(eval *pressio.Evaluator) func(bound float64) (Evaluation, error) {
	if !t.obj.NeedsReport {
		return func(bound float64) (Evaluation, error) {
			ratio, size, evaluated, err := eval.Ratio(bound)
			if err != nil {
				return Evaluation{}, err
			}
			ev := Evaluation{ErrorBound: evaluated, Ratio: ratio, CompressedSize: size}
			ev.Value = t.obj.Achieved(ev)
			return ev, nil
		}
	}
	return func(bound float64) (Evaluation, error) {
		rep, evaluated, err := eval.Full(bound)
		if err != nil {
			return Evaluation{}, err
		}
		ev := Evaluation{
			ErrorBound:     evaluated,
			Ratio:          rep.CompressionRatio,
			CompressedSize: rep.CompressedBytes,
			Report:         &rep,
		}
		ev.Value = t.obj.Achieved(ev)
		return ev, nil
	}
}

// TuneWithPrediction implements the worker-task algorithm (Algorithm 1): if
// a prediction (a previously successful error bound) is provided it is tried
// first, and only if it misses the acceptance band does the training run —
// the model-first search where the objective and the codec allow it (with
// the missed prediction as its first point), the region-parallel search
// otherwise and as its fallback.
func (t *Tuner) TuneWithPrediction(ctx context.Context, buf pressio.Buffer, prediction float64) (Result, error) {
	start := time.Now()
	if !t.codec.SupportsShape(buf.Shape) {
		return Result{}, fmt.Errorf("fraz: compressor %s does not support shape %v", t.codec.Name, buf.Shape)
	}
	if !t.obj.SupportsRank(buf.Shape.NDims()) {
		return Result{}, fmt.Errorf("fraz: objective %s is not measurable on shape %v (needs rank %d..%d)",
			t.obj.Name, buf.Shape, t.obj.MinRank, t.obj.MaxRank)
	}
	res := Result{
		Compressor: t.codec.Name,
		Objective:  t.obj.Name,
		Target:     t.obj.Target,
		Tolerance:  t.obj.Tolerance,
	}
	if t.obj.Name == "ratio" {
		res.TargetRatio = t.obj.Target
	}
	// Direct satisfaction (the zero-evaluation fast path): a fixed-ratio
	// objective paired with a true fixed-rate codec needs no search — the
	// codec's size formula is inverted into a whole-bit rate, and the
	// achieved ratio is the same number a real evaluation would measure
	// (raw bytes over the codec's stream size). Prediction is skipped too:
	// arithmetic is cheaper than even one cached evaluation. When no
	// whole-bit rate lands in the acceptance band the normal search runs
	// and reports infeasibility the usual way.
	if t.obj.DirectlySatisfiable() && t.codec.Size != nil {
		if ev, ok := t.directRate(buf); ok {
			res.fill(ev, true)
			res.Direct = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}

	// One evaluator per tuning run: the buffer fingerprint is computed once
	// and every region search below shares the memoised evaluations.
	eval := pressio.NewEvaluator(t.cache, t.compressor, buf)
	measure := t.measure(eval)

	// missed is the evaluation of a prediction that ran and fell outside the
	// band: no answer, but a measured point the model-first search starts
	// from.
	var missed *Evaluation
	if prediction > 0 {
		ev, err := measure(prediction)
		res.Iterations++
		if err != nil {
			// A compressor failure at the predicted bound is not the same
			// as "the prediction missed the band": record it so series
			// reporting can tell the two apart, then retrain as usual.
			res.PredictionErr = fmt.Errorf("fraz: prediction evaluation at bound %v: %w", prediction, err)
		} else if t.obj.InBand(ev.Value) {
			res.fill(ev, true)
			res.UsedPrediction = true
			res.CacheHits, res.CacheMisses = eval.Stats()
			res.Elapsed = time.Since(start)
			return res, nil
		} else if !math.IsNaN(ev.Value) {
			missed = &ev
		}
	}

	lo, hi, err := t.searchRange(buf)
	if err != nil {
		return Result{}, err
	}
	if t.modelFirst {
		rr, found := t.modelSearch(ctx, measure, buf, lo, hi, missed)
		res.Regions = append(res.Regions, rr)
		res.Iterations += rr.Iterations
		if found != nil {
			res.fill(*found, true)
			res.CacheHits, res.CacheMisses = eval.Stats()
			res.Elapsed = time.Since(start)
			return res, nil
		}
		// No in-band bound among the probes: the region search below decides,
		// and finds them in the cache.
	}
	// Quality metrics respond to the order of magnitude of the bound rather
	// than its absolute value, so their objectives search in log space: the
	// regions partition [ln lo, ln hi] and every candidate is exponentiated
	// before being handed to the compressor. The ratio search stays linear,
	// as in the paper.
	sLo, sHi := lo, hi
	if t.obj.LogSpace {
		sLo, sHi = math.Log(lo), math.Log(hi)
	}
	regions, err := parallel.SplitRegions(sLo, sHi, t.cfg.Regions, t.cfg.Overlap)
	if err != nil {
		return Result{}, err
	}

	cutoff := t.obj.SearchCutoff()
	tasks := make([]parallel.Task[RegionResult], len(regions))
	for i, region := range regions {
		i, region := i, region
		tasks[i] = func(taskCtx context.Context) (RegionResult, bool, error) {
			rr := t.searchRegion(taskCtx, measure, region, cutoff, t.cfg.Seed+int64(i))
			return rr, rr.Acceptable, rr.Err
		}
	}
	outcomes := parallel.RunUntilAcceptable(ctx, t.cfg.Workers, tasks)

	for _, o := range outcomes {
		rr := o.Value
		rr.Started = o.Started
		res.Regions = append(res.Regions, rr)
		res.Iterations += rr.Iterations
	}
	// Pick the recommendation from everything observed (the model-first
	// probes, when there were any, are the first entry): among in-band
	// evaluations the closest to the target (Algorithm 2, lines 17–26) — or,
	// for PreferRatio objectives, the highest-ratio in-band one — otherwise
	// the evaluation whose value is closest to the target.
	var best *Evaluation
	bestDist := math.Inf(1)
	feasible := false
	for _, rr := range res.Regions {
		if !rr.Started || rr.Err != nil {
			continue
		}
		for i := range rr.Evaluations {
			ev := rr.Evaluations[i]
			d := math.Abs(ev.Value - t.obj.Target)
			inBand := t.obj.InBand(ev.Value)
			var better bool
			switch {
			case feasible && !inBand:
				better = false
			case !feasible && inBand:
				better = true
				feasible = true
			case feasible && t.obj.PreferRatio:
				// Both in band: the quality is already good enough, so take
				// the size win.
				better = ev.Ratio > best.Ratio
			default:
				better = d < bestDist
			}
			if better {
				bestDist = d
				best = &rr.Evaluations[i]
			}
		}
	}
	res.CacheHits, res.CacheMisses = eval.Stats()
	// A cancelled or timed-out search is not a verdict on the data: unless
	// an in-band bound was already found before the cancellation landed, the
	// caller gets its own ctx.Err() back — never a spurious "no evaluation"
	// or "infeasible" conclusion drawn from a truncated search.
	if cerr := ctx.Err(); cerr != nil && (best == nil || !t.obj.InBand(best.Value)) {
		res.Elapsed = time.Since(start)
		return res, cerr
	}
	if best == nil {
		res.Elapsed = time.Since(start)
		return res, fmt.Errorf("fraz: no successful compressor evaluation (compressor %s)", t.codec.Name)
	}
	res.fill(*best, t.obj.InBand(best.Value))
	res.Elapsed = time.Since(start)
	return res, nil
}

// directRate inverts the fixed-ratio target into a bits-per-value setting:
// the wanted stream size is rawBytes/ρt, the codec's affine size formula
// size(N) = overhead + ⌈elements·N/8⌉ is solved for N, and the floor and
// ceil whole-bit candidates are scored against the acceptance band — the
// in-band candidate whose achieved ratio is closest to the target wins
// (the paper's closest-to-target rule, applied to a two-point grid). ok is
// false when neither lands in the band, i.e. the band is narrower than one
// bit's worth of ratio at this size; the caller falls back to the search.
func (t *Tuner) directRate(buf pressio.Buffer) (Evaluation, bool) {
	rawBytes := buf.Bytes()
	elements := buf.Shape.Len()
	if rawBytes == 0 || elements == 0 {
		return Evaluation{}, false
	}
	minBits, maxBits := t.codec.Param.Limits(buf.DType())
	overhead := t.codec.Size(buf.Shape, 0)
	want := float64(rawBytes)/t.obj.Target - float64(overhead)
	exact := math.Min(math.Max(want*8/float64(elements), minBits), maxBits)
	var best Evaluation
	bestDist := math.Inf(1)
	found := false
	for _, n := range []int{int(math.Floor(exact)), int(math.Ceil(exact))} {
		size := t.codec.Size(buf.Shape, n)
		ratio := float64(rawBytes) / float64(size)
		if !t.obj.InBand(ratio) {
			continue
		}
		if d := math.Abs(ratio - t.obj.Target); d < bestDist {
			bestDist = d
			best = Evaluation{ErrorBound: float64(n), Ratio: ratio, CompressedSize: size, Value: ratio}
			found = true
		}
	}
	return best, found
}

// fill copies one chosen evaluation into the result.
func (r *Result) fill(ev Evaluation, feasible bool) {
	r.ErrorBound = ev.ErrorBound
	r.AchievedValue = ev.Value
	r.AchievedRatio = ev.Ratio
	r.CompressedSize = ev.CompressedSize
	r.Feasible = feasible
}

// searchRegion runs the cutoff-modified global minimiser within one region.
// Evaluations go through the shared evaluator, so bounds already measured by
// an overlapping region (or an earlier tuning run on the same data) are
// served from the cache instead of re-compressing (or re-round-tripping, for
// quality objectives).
func (t *Tuner) searchRegion(ctx context.Context, measure func(float64) (Evaluation, error), region parallel.Region, cutoff float64, seed int64) RegionResult {
	rr := RegionResult{Region: region, Started: true}
	// rr.Iterations counts evaluations (cached or not), not optimizer
	// steps: once the region is cancelled the objective short-circuits
	// without compressing, and those steps must not be billed.
	objective := func(x float64) float64 {
		if ctx.Err() != nil {
			// Cancelled: report the clamp so the optimizer loses interest.
			return Gamma
		}
		rr.Iterations++
		bound := x
		if t.obj.LogSpace {
			bound = math.Exp(x)
		}
		ev, err := measure(bound)
		if err != nil || math.IsNaN(ev.Value) {
			return Gamma
		}
		rr.Evaluations = append(rr.Evaluations, ev)
		return t.obj.Loss(ev.Value)
	}
	optRes, err := optim.FindGlobalMin(objective, optim.Options{
		Lower:         region.Lower,
		Upper:         region.Upper,
		MaxIterations: t.cfg.MaxIterationsPerRegion,
		Cutoff:        cutoff,
		Seed:          seed,
	})
	if err != nil {
		rr.Err = err
		return rr
	}
	rr.Acceptable = optRes.Converged && ctx.Err() == nil
	rr.Best = closest(rr.Evaluations, t.obj.Target)
	return rr
}

// SeriesStep is the tuning outcome for one time-step of a field series.
type SeriesStep struct {
	TimeStep int
	Result   Result
	// Retrained is true when the previous step's bound missed the band and a
	// full search was required.
	Retrained bool
}

// SeriesResult aggregates the tuning of a whole field across time-steps.
type SeriesResult struct {
	// Field names the series (e.g. "Hurricane/CLOUDf").
	Field string
	Steps []SeriesStep
	// Retrains counts how many steps required a full search (the first step
	// always does).
	Retrains int
	// PredictionErrors counts the steps whose prediction evaluation failed
	// outright (Result.PredictionErr != nil) — retrains forced by a
	// compressor failure, not by the reused bound missing the band.
	PredictionErrors int
	// ConvergedSteps counts steps whose final ratio is inside the band.
	ConvergedSteps int
	// TotalIterations is the total number of compressor evaluations.
	TotalIterations int
	// CacheHits and CacheMisses total the per-step evaluation-cache
	// counters: hits are evaluations that skipped the compressor entirely.
	CacheHits   int
	CacheMisses int
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
}

// Series describes a field's time series through a lazy provider, so whole
// datasets never need to be resident in memory at once (the paper notes
// users decompress/tune per time-step for the same reason, §II-B).
type Series struct {
	// Field names the series for reporting.
	Field string
	// Steps is the number of time-steps.
	Steps int
	// At returns the buffer for time-step i.
	At func(i int) (pressio.Buffer, error)
}

// TuneSeries tunes every time-step of a field, reusing the previous step's
// error bound as the prediction for the next (Algorithm 3's inner loop).
func (t *Tuner) TuneSeries(ctx context.Context, s Series) (SeriesResult, error) {
	start := time.Now()
	if s.Steps <= 0 || s.At == nil {
		return SeriesResult{}, fmt.Errorf("%w: series needs a positive step count and a provider", ErrBadConfig)
	}
	out := SeriesResult{Field: s.Field}
	prediction := 0.0
	for step := 0; step < s.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		buf, err := s.At(step)
		if err != nil {
			return out, fmt.Errorf("fraz: series %s step %d: %w", s.Field, step, err)
		}
		res, err := t.TuneWithPrediction(ctx, buf, prediction)
		if err != nil {
			return out, fmt.Errorf("fraz: series %s step %d: %w", s.Field, step, err)
		}
		stepOut := SeriesStep{TimeStep: step, Result: res, Retrained: !res.UsedPrediction}
		out.Steps = append(out.Steps, stepOut)
		out.TotalIterations += res.Iterations
		out.CacheHits += res.CacheHits
		out.CacheMisses += res.CacheMisses
		if stepOut.Retrained {
			out.Retrains++
		}
		if res.PredictionErr != nil {
			out.PredictionErrors++
		}
		if res.Feasible {
			out.ConvergedSteps++
			prediction = res.ErrorBound
		}
		// An infeasible step keeps the previous prediction, as Algorithm 3
		// only updates p when the ratio landed inside the band.
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// TuneFields tunes several field series in parallel (Algorithm 3's outer
// loop), bounded by Config.Workers.
func (t *Tuner) TuneFields(ctx context.Context, series []Series) ([]SeriesResult, error) {
	results := make([]SeriesResult, len(series))
	var mu sync.Mutex
	var firstErr error
	err := parallel.ForEach(ctx, len(series), t.cfg.Workers, func(ctx context.Context, idx int) error {
		r, err := t.TuneSeries(ctx, series[idx])
		mu.Lock()
		defer mu.Unlock()
		results[idx] = r
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return err
	})
	if firstErr != nil {
		return results, firstErr
	}
	return results, err
}

// ClosestObserved returns, among all evaluations of a result's regions, the
// ones sorted by distance to the objective's target. It is a reporting
// helper used by the CLI to explain infeasible requests.
func ClosestObserved(res Result) []Evaluation {
	var all []Evaluation
	for _, rr := range res.Regions {
		all = append(all, rr.Evaluations...)
	}
	sort.Slice(all, func(i, j int) bool {
		return math.Abs(all[i].Value-res.Target) < math.Abs(all[j].Value-res.Target)
	})
	return all
}
