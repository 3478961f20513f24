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
//     parallel (Algorithm 2, Fig. 5); where the paper cancels every
//     outstanding region as soon as any one finds an acceptable bound, here
//     the lowest acceptable region wins, whichever finishes first (sweep);
//   - multiple time-steps of a field reuse the previously found bound and
//     retrain only when the reused bound falls outside the acceptance band,
//     and different fields are tuned in parallel (Algorithm 3, §V-C).
//
// When no error bound in the admissible range reaches the target band, FRaZ
// reports the closest ratio it observed and marks the result infeasible,
// leaving the decision of relaxing ε or U (or switching compressors) to the
// user, exactly as §V-B3 prescribes.
//
// A tuning run is a ladder (TuneWithPrediction): arithmetic, a reused bound,
// the objective's closed form, the region search — each rung tried only when
// the one above did not settle the run, a bisection (bisect) closing what gap
// either search left the target in, and one rule (Objective.better) picking
// the answer from whatever they measured. Every measurement runs at its
// evaluation-cache slot's own bound (pressio.Param.Slot), so the result is a
// function of the data, the configuration and the seed — which only the
// region search reads — not of Workers, GOMAXPROCS, or what the cache
// already held. Which rungs a run takes, and
// over what interval, follows from the objective and the codec's descriptor
// (pressio.Codec), never from a setting or a codec's name:
//
//   - the parameter is searched in its own unit (Tuner.searchRange): an
//     error magnitude over an interval scaled to the data's value range, a
//     bit count over its declared domain whatever the data's scale;
//   - FixedRatio on a true fixed-rate codec (one with a Size: frsz:rate) is
//     satisfied directly, by arithmetic, with no evaluation;
//   - FixedRatio, FixedPSNR and FixedMaxError on a codec whose parameter is
//     an error magnitude (pressio.Unit.IsError: sz:abs, sz:rel, zfp:accuracy,
//     mgard:abs, mgard:l2, szx:abs) are tuned model first (model.go): the
//     objective's closed form names the first bound — for the ratio, whose
//     closed form leaves an offset to the data, a pilot — and a sequential
//     bracket corrects a miss, within eight evaluations; bisection and then
//     the region search above are its fallbacks, for curves with teeth
//     (SZ's ratio, paper Fig. 3), staircases and unreachable targets;
//   - everything else — FixedSSIM, and any objective on zfp:rate,
//     zfp:precision or frsz:rate — takes the region search, which
//     Tuner.SweepOnly also reaches directly.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
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

// gamma is the clamp applied to the quadratic loss: 80% of the largest
// representable double, as in §V-B2.
const gamma = 0.8 * math.MaxFloat64

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
	// Regions is K, the number of overlapping error-bound regions the range
	// is split into; they are searched lowest first, Workers at a time. Zero
	// selects parallel.DefaultRegions (12).
	Regions int
	// MaxIterationsPerRegion caps optimizer iterations per region. Zero
	// selects DefaultMaxIterationsPerRegion.
	MaxIterationsPerRegion int
	// Workers bounds the number of concurrently searched regions (and, in
	// TuneFields, concurrently tuned fields). Zero uses GOMAXPROCS. It has
	// no say in a Result beyond Elapsed and the cache counters.
	Workers int
	// Seed seeds each region's minimiser; with the data and the rest of the
	// configuration it determines the Result. A run the rungs above the sweep
	// settle never reads it.
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
	if c.MaxIterationsPerRegion <= 0 {
		c.MaxIterationsPerRegion = DefaultMaxIterationsPerRegion
	}
	return c
}

// ErrBadConfig is returned for invalid tuner configuration.
var ErrBadConfig = errors.New("fraz: invalid configuration")

// Rung names the step of TuneWithPrediction's ladder that asked for an
// evaluation.
type Rung uint8

const (
	// RungReuse is the measurement of a previous step's bound.
	RungReuse Rung = iota + 1
	// RungModel is a probe of the model-first search (model.go).
	RungModel
	// RungBisect is a bisection of a gap the searches left the target in.
	RungBisect
	// RungSweep is an evaluation of the region search.
	RungSweep
)

// Evaluation records one evaluation of a tuning run: a compressor invocation,
// or the evaluation cache answering one.
type Evaluation struct {
	// Rung is the ladder step that asked for it, and Region, for RungSweep,
	// the index of the sweep region it ran in.
	Rung   Rung
	Region int
	// ErrorBound is the bound handed to the compressor.
	ErrorBound float64
	// Ratio is the achieved compression ratio.
	Ratio float64
	// CompressedSize is the compressed size in bytes.
	CompressedSize int
	// Value is the tuned objective's achieved value at ErrorBound (equal to
	// Ratio for the fixed-ratio objective).
	Value float64
	// Report carries the full quality metrics of the round trip when the
	// objective measures quality; nil for compress-only evaluations.
	Report *metrics.Report
	// CacheHit is true when the evaluation cache answered without invoking
	// the compressor.
	CacheHit bool
	// Err is the compressor's error when the evaluation failed; Value is then
	// NaN.
	Err error
	// Elapsed is the wall time the evaluation took: the compressor's (and the
	// quality report's) on a miss; the lookup, or the wait on another
	// caller's run of the same slot, on a hit.
	Elapsed time.Duration
	// stream is what the evaluation compressed the tuned buffer into, held
	// while the run lasts when it ran the compressor and landed in band.
	stream []byte
}

// measured reports whether the evaluation has a value the pick may rank.
func (ev Evaluation) measured() bool { return !math.IsNaN(ev.Value) }

// Result is the outcome of tuning one field/time-step.
type Result struct {
	// Compressor is the name of the tuned compressor.
	Compressor string
	// Objective names the tuned objective ("ratio", "psnr", "ssim",
	// "max-error") and Target its requested value.
	Objective string
	Target    float64
	// Tolerance is the objective's acceptance half-width (fractional for
	// ratio/PSNR, absolute for SSIM/max-error).
	Tolerance float64
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
	// Iterations is the number of evaluations the answer rests on,
	// len(Evaluations).
	Iterations int
	// Direct is true when the objective was satisfied directly from codec
	// capability — a fixed-rate codec's size formula inverted into its
	// bits-per-value parameter — with zero search evaluations: Evaluations
	// is empty, and ErrorBound holds the whole-bit rate.
	Direct bool
	// UsedPrediction is true when a reused bound from a previous time-step
	// satisfied the target without retraining. A prediction that was tried is
	// Evaluations[0], with Rung RungReuse; its Err tells a compressor failure
	// from a bound that merely missed the band.
	UsedPrediction bool
	// CacheHits counts the evaluations, of Iterations, served from the shared
	// evaluation cache without invoking the compressor; CacheMisses the ones
	// that were not (those that compressed, plus failed evaluations).
	// Iterations = CacheHits + CacheMisses.
	CacheHits   int
	CacheMisses int
	// Evaluations lists every evaluation the run is charged for, in the
	// order one worker runs them: the reused bound, the model's probes, a
	// bisection, the sweep's regions from the lowest up to the first
	// acceptable one, and a bisection after it — each only if the run got
	// that far. Regions above the acceptable one were speculation and are not
	// listed. A SealBlocked result lists its corrective tunes' after the
	// first's.
	Evaluations []Evaluation
	// Elapsed is the wall-clock tuning time.
	Elapsed time.Duration
}

// Tuner searches error bounds for one compressor.
type Tuner struct {
	compressor pressio.Compressor
	// codec is the compressor's descriptor, the source of every static fact
	// the tuner acts on: parameter domain, rank window, fixed-rate size.
	codec *pressio.Codec
	// cfg.Objective is what the caller asked for, and what a Result reports;
	// obj is what the search aims at: the same, unless SealBlocked rescaled
	// its target to correct an archive that missed the band.
	cfg   Config
	obj   Objective
	cache *pressio.Cache
	// modelFirst selects the predict-then-bracket search of model.go ahead
	// of the region search. It follows from the objective and the codec: an
	// objective with a closed-form model of how its value follows the bound,
	// on a codec whose parameter is an error magnitude.
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
	if codec.Param.Unit.IsBitCount() && cfg.MaxError > 0 {
		return nil, fmt.Errorf("%w: %s is tuned in %s, which a maximum error in data units cannot limit",
			ErrBadConfig, codec.Name, codec.Param.Name)
	}
	cache := cfg.Cache
	if cache == nil {
		cache = pressio.NewCache()
	}
	cfg = cfg.withDefaults()
	cfg.Objective = obj
	first := obj.LogBoundFor != nil && codec.Param.Unit.IsError()
	return &Tuner{compressor: c, codec: codec, cfg: cfg, obj: obj, cache: cache, modelFirst: first}, nil
}

// SweepOnly returns a tuner that takes the region search where this one
// would try the model first — the paper's Algorithm 2 as published, for the
// experiments that reproduce its figures and the tests that pin the sweep —
// and shares this one's evaluation cache.
func (t *Tuner) SweepOnly() *Tuner {
	s := *t
	s.modelFirst = false
	return &s
}

// searchRange determines the parameter interval [lo, hi] searched for a
// buffer, in the parameter's own units. An error magnitude is searched from
// 1e-9 of the data's value range up to the user's U (or the
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
		eLo, eHi := vr*1e-9, t.cfg.MaxError
		if eHi <= 0 {
			eHi = vr
		}
		lo, hi = math.Max(lo, t.inUnit(eLo, vr)), math.Min(hi, t.inUnit(eHi, vr))
	}
	if !(lo < hi) {
		return 0, 0, fmt.Errorf("%w: empty range [%v, %v] for %s", ErrBadConfig, lo, hi, p.Name)
	}
	return lo, hi, nil
}

// inUnit restates a pointwise error e, in the units of data whose value range
// is vr, in the unit of the codec's error-magnitude parameter.
func (t *Tuner) inUnit(e, vr float64) float64 {
	switch t.codec.Param.Unit {
	case pressio.UnitSquaredError:
		return e * e
	case pressio.UnitRangeFraction:
		return e / vr
	}
	return e
}

// TuneBuffer tunes a single field/time-step buffer with no prediction
// (Algorithms 1 and 2).
func (t *Tuner) TuneBuffer(ctx context.Context, buf pressio.Buffer) (Result, error) {
	return t.TuneWithPrediction(ctx, buf, 0)
}

// run is the state of one tuning run: what the rungs of TuneWithPrediction's
// ladder share, and what they leave for its epilogue.
type run struct {
	t    *Tuner
	ctx  context.Context
	buf  pressio.Buffer
	eval *pressio.Evaluator
	// evals is every evaluation the run is charged for, in an order no
	// scheduler decides; the epilogue reads the answer, the bill and the
	// carried stream off it.
	evals []Evaluation
}

// TuneWithPrediction implements the worker-task algorithm (Algorithm 1) as a
// ladder of four rungs, cheapest first — exact, reuse of the prediction (a
// previously successful bound, when one is given), model, sweep — each tried
// only when the one above it did not settle the run, and a search that left
// the target between two of its evaluations bisected before the next begins
// (descend). A rung only measures. The epilogue here is the one place that
// picks the answer — by Objective.better, over everything the rungs saw —
// bills the run and stamps the clock.
func (t *Tuner) TuneWithPrediction(ctx context.Context, buf pressio.Buffer, prediction float64) (Result, error) {
	res, _, err := t.tune(ctx, buf, prediction)
	return res, err
}

// tune is TuneWithPrediction that also returns the stream of the evaluation
// it picked — nil when the cache answered every evaluation at that bound —
// for SealBlocked to seal instead of compressing buf again.
func (t *Tuner) tune(ctx context.Context, buf pressio.Buffer, prediction float64) (Result, []byte, error) {
	start := time.Now()
	if !t.codec.SupportsShape(buf.Shape) {
		return Result{}, nil, fmt.Errorf("%w: compressor %s does not support shape %v", ErrBadConfig, t.codec.Name, buf.Shape)
	}
	if !t.obj.SupportsRank(buf.Shape.NDims()) {
		return Result{}, nil, fmt.Errorf("%w: objective %s is not measurable on shape %v (needs rank %d..%d)",
			ErrBadConfig, t.obj.Name, buf.Shape, t.obj.MinRank, t.obj.MaxRank)
	}
	res := Result{
		Compressor: t.codec.Name,
		Objective:  t.obj.Name,
		Target:     t.cfg.Objective.Target,
		Tolerance:  t.obj.Tolerance,
	}
	r := &run{t: t, ctx: ctx, buf: buf}
	// The pick ranks the whole-bit rates arithmetic offers, or else what the
	// rungs measured.
	candidates := r.exact()
	var err error
	if res.Direct = len(candidates) > 0; !res.Direct {
		if err = r.descend(prediction); err != nil && !errors.Is(err, ctx.Err()) {
			return Result{}, nil, err // a configuration that admits no search
		}
		candidates, res.Evaluations = r.evals, r.evals
	}
	if evs := res.Evaluations; len(evs) > 0 && evs[0].Rung == RungReuse {
		res.UsedPrediction = t.obj.InBand(evs[0].Value)
	}
	// The earliest evaluation none of the others is better than: the pick
	// follows from the order of the list alone.
	var best *Evaluation
	for i := range candidates {
		if ev := &candidates[i]; ev.measured() && (best == nil || t.obj.better(*ev, *best)) {
			best = ev
		}
	}
	if err == nil && best == nil {
		err = fmt.Errorf("fraz: no successful compressor evaluation (compressor %s)", t.codec.Name)
	}
	if err == nil {
		res.ErrorBound, res.AchievedValue = best.ErrorBound, best.Value
		res.AchievedRatio, res.CompressedSize = best.Ratio, best.CompressedSize
		res.Feasible = t.obj.InBand(best.Value)
	}
	var picked []byte
	for i := range candidates {
		// Every evaluation in the picked slot compressed the same bytes; no
		// stream outlives the run.
		if ev := &candidates[i]; err == nil && ev.stream != nil && math.Float64bits(ev.ErrorBound) == math.Float64bits(res.ErrorBound) {
			picked = ev.stream
		}
		candidates[i].stream = nil
	}
	res.count()
	res.Elapsed = time.Since(start)
	return res, picked, err
}

// count derives Iterations, CacheHits and CacheMisses from Evaluations.
func (r *Result) count() {
	r.Iterations, r.CacheHits = len(r.Evaluations), 0
	for _, ev := range r.Evaluations {
		if ev.CacheHit {
			r.CacheHits++
		}
	}
	r.CacheMisses = r.Iterations - r.CacheHits
}

// descend runs the rungs below exact in order and returns at the first that
// settles the run, or with why the search could not start or finish.
func (r *run) descend(prediction float64) error {
	// One evaluator per run: the buffer fingerprint is computed once and
	// every rung shares the memoised evaluations.
	r.eval = pressio.NewEvaluator(r.t.cache, r.t.compressor, r.buf)
	// Algorithm 3's time-step reuse: the bound a previous step succeeded with
	// is measured once and settles the run if it lands in band. A miss is a
	// measured point, where the model-first search starts and the pick may
	// fall.
	if prediction > 0 && r.t.obj.InBand(r.measure(&r.evals, RungReuse, 0, prediction).Value) {
		return nil
	}
	lo, hi, err := r.t.searchRange(r.buf)
	if err != nil {
		return err
	}
	if r.t.modelFirst && (r.model(lo, hi) || r.bisect()) {
		return nil
	}
	// No in-band bound among the probes: the sweep decides, and finds them in
	// the cache.
	if err = r.sweep(lo, hi); err == nil && !r.bisect() {
		// A cancelled or timed-out search is not a verdict on the data: the
		// caller gets its own ctx.Err() back, never a "no evaluation" or
		// "infeasible" conclusion drawn from a truncated search.
		err = r.ctx.Err()
	}
	return err
}

// measure is the single black-box evaluation every rung performs: a cached
// compression for the fixed-ratio objective, a cached round trip (with the
// full metric report) for quality objectives. It
// appends the Evaluation to list — the run's, or a sweep region's — with the
// bound the measurement ran at, the objective's achieved Value, and the
// stream of an in-band one that ran the compressor, and the time it took.
func (r *run) measure(list *[]Evaluation, rung Rung, region int, bound float64) Evaluation {
	t := r.t
	start := time.Now()
	entry, comp, hit, err := r.eval.Evaluate(bound, t.obj.Quality)
	ev := Evaluation{Rung: rung, Region: region, ErrorBound: entry.Bound, Ratio: entry.Ratio,
		CompressedSize: entry.Size, Value: math.NaN(), CacheHit: hit, Err: err, Elapsed: time.Since(start)}
	if err != nil {
		ev.ErrorBound = t.codec.Param.Slot(bound)
	} else {
		if t.obj.Quality {
			ev.Report = &entry.Report
		}
		ev.Value = t.obj.Achieved(ev)
		if comp != nil && t.obj.InBand(ev.Value) {
			ev.stream = comp
		}
	}
	*list = append(*list, ev)
	return ev
}

// exact is the first rung, the zero-evaluation fast path: a fixed-ratio
// objective paired with a true fixed-rate codec needs no search. The wanted
// stream size is rawBytes/ρt, the codec's affine size formula
// size(N) = overhead + ⌈elements·N/8⌉ is solved for N, and the floor and
// ceil whole-bit candidates that land in the acceptance band are offered to
// the epilogue; their ratios are the numbers a real evaluation would measure
// (raw bytes over the codec's stream size). When neither lands — the band is
// narrower than one bit's worth of ratio at this size — the rungs below run
// and report infeasibility the usual way.
func (r *run) exact() []Evaluation {
	t := r.t
	rawBytes, elements := r.buf.Bytes(), r.buf.Shape.Len()
	if !t.obj.DirectlySatisfiable() || t.codec.Size == nil || rawBytes == 0 || elements == 0 {
		return nil
	}
	minBits, maxBits := t.codec.Param.Limits(r.buf.DType())
	overhead := t.codec.Size(r.buf.Shape, 0)
	want := float64(rawBytes)/t.obj.Target - float64(overhead)
	exact := math.Min(math.Max(want*8/float64(elements), minBits), maxBits)
	var out []Evaluation
	for _, n := range []int{int(math.Floor(exact)), int(math.Ceil(exact))} {
		size := t.codec.Size(r.buf.Shape, n)
		ratio := float64(rawBytes) / float64(size)
		if t.obj.InBand(ratio) {
			out = append(out, Evaluation{ErrorBound: float64(n), Ratio: ratio, CompressedSize: size, Value: ratio})
		}
	}
	return out
}

// sweep is the last rung, the paper's region-parallel search (Algorithm 2)
// under a winner rule no scheduler can influence: the answer is what one
// worker computes going through the regions in order and stopping after the
// first acceptable one. More workers only speculate ahead. winner holds the
// lowest acceptable region index so far; a region above it is skipped, or
// stops at its next evaluation, while a region below it always runs to its
// end — so when the sweep is over, regions 0..winner hold exactly what the
// single worker would have, and they alone are listed. Whatever a stopped
// region did is never read, and what it left in the evaluation cache is
// harmless: a slot holds the same entry whoever filled it.
func (r *run) sweep(lo, hi float64) error {
	t := r.t
	// Quality metrics respond to the order of magnitude of the bound rather
	// than its absolute value, so their objectives search in log space: the
	// regions partition [ln lo, ln hi] and every candidate is exponentiated
	// before being handed to the compressor. The ratio search stays linear,
	// as in the paper.
	if t.obj.Quality {
		lo, hi = math.Log(lo), math.Log(hi)
	}
	regions, err := parallel.SplitRegions(lo, hi, t.cfg.Regions, parallel.DefaultOverlap)
	if err != nil {
		return err
	}
	results := make([][]Evaluation, len(regions))
	var winner atomic.Int64
	winner.Store(int64(len(regions) - 1))
	err = parallel.ForEach(r.ctx, len(regions), t.cfg.Workers, func(ctx context.Context, i int) error {
		idx := int64(i)
		stop := func() bool { return ctx.Err() != nil || idx > winner.Load() }
		if stop() {
			return nil
		}
		var acceptable bool
		results[i], acceptable = r.searchRegion(stop, regions[i], i)
		if acceptable {
			for w := winner.Load(); idx < w && !winner.CompareAndSwap(w, idx); w = winner.Load() {
			}
		}
		return nil
	})
	for _, evs := range results[:winner.Load()+1] {
		r.evals = append(r.evals, evs...)
	}
	return err
}

// bisect follows a search that found no in-band bound, and reports whether
// there is one now. Where two evaluations, neighbours in bound order, lie on
// opposite sides of the target, the curve passes through the band between
// them or jumps over it, and the search sampled it too thinly to tell. Each
// such gap, lowest first, is halved until a bound lands in band or no
// unmeasured cache slot is left inside it (a jump: nothing there to find),
// within one region's budget.
func (r *run) bisect() bool {
	t := r.t
	pts := slices.DeleteFunc(slices.Clone(r.evals), func(ev Evaluation) bool { return !ev.measured() })
	slices.SortFunc(pts, func(a, b Evaluation) int { return cmp.Compare(a.ErrorBound, b.ErrorBound) })
	if slices.ContainsFunc(pts, func(ev Evaluation) bool { return t.obj.InBand(ev.Value) }) {
		return true
	}
	under := func(ev Evaluation) bool { return ev.Value < t.obj.Target }
	spent, acceptable := 0, false
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		for !acceptable && under(lo) != under(hi) && spent < t.cfg.MaxIterationsPerRegion && r.ctx.Err() == nil {
			// The geometric mean: cache slots are evenly spaced in the logarithm.
			mid := math.Sqrt(lo.ErrorBound * hi.ErrorBound)
			if q := t.codec.Param.Slot(mid); q <= lo.ErrorBound || q >= hi.ErrorBound {
				break
			}
			ev := r.measure(&r.evals, RungBisect, 0, mid)
			spent++
			if !ev.measured() {
				break
			}
			acceptable = t.obj.InBand(ev.Value)
			if under(ev) == under(lo) {
				lo = ev
			} else {
				hi = ev
			}
		}
	}
	return acceptable
}

// searchRegion runs the cutoff-modified global minimiser within region idx
// until it converges, spends its iterations, or stop reports true, and
// returns its evaluations and whether it converged. Evaluations go through
// the shared evaluator, so bounds already measured by an overlapping region
// (or an earlier tuning run on the same data) are served from the cache
// instead of re-compressing (or re-round-tripping, for quality objectives).
func (r *run) searchRegion(stop func() bool, region parallel.Region, idx int) (evs []Evaluation, acceptable bool) {
	t := r.t
	// evs holds evaluations (cached or not), not optimizer steps: once the
	// region is stopped the objective short-circuits without compressing,
	// and those steps must not be billed.
	objective := func(x float64) float64 {
		if stop() {
			// Report the clamp so the optimizer loses interest.
			return gamma
		}
		bound := x
		if t.obj.Quality {
			bound = math.Exp(x)
		}
		// A failed or unmeasurable evaluation's NaN loses as the clamp does.
		return t.obj.Loss(r.measure(&evs, RungSweep, idx, bound).Value)
	}
	optRes, err := optim.FindGlobalMin(objective, optim.Options{
		Lower:         region.Lower,
		Upper:         region.Upper,
		MaxIterations: t.cfg.MaxIterationsPerRegion,
		Cutoff:        t.obj.SearchCutoff(),
		Seed:          t.cfg.Seed + int64(idx),
	})
	return evs, err == nil && optRes.Converged
}

// SeriesResult aggregates the tuning of a whole field across time-steps.
type SeriesResult struct {
	// Field names the series (e.g. "Hurricane/CLOUDf").
	Field string
	// Steps holds each time-step's result, indexed by step.
	Steps []Result
	// Retrains counts the steps the reused bound did not settle (the first
	// step always is one): those without UsedPrediction.
	Retrains int
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
		out.Steps = append(out.Steps, res)
		out.TotalIterations += res.Iterations
		out.CacheHits += res.CacheHits
		out.CacheMisses += res.CacheMisses
		if !res.UsedPrediction {
			out.Retrains++
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
	err := parallel.ForEach(ctx, len(series), t.cfg.Workers, func(ctx context.Context, idx int) (err error) {
		results[idx], err = t.TuneSeries(ctx, series[idx])
		return err
	})
	return results, err
}
