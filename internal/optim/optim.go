// Package optim implements the derivative-free scalar optimizers FRaZ uses.
//
// The primary algorithm, FindGlobalMin, follows the structure of Dlib's
// find_min_global function that the paper builds on (§V-B1): it alternates
// between a global exploration step driven by a piecewise-linear Lipschitz
// lower bound on the objective (the MaxLIPO model of Malherbe & Vayatis) and
// a local quadratic "trust region" refinement around the incumbent best
// point (in the spirit of Powell's NEWUOA). Like the paper's modified
// version, it supports an early-termination cutoff: the search stops as soon
// as the objective value drops to or below the cutoff, which is how FRaZ
// trades exactness of the ratio match for runtime (§V-B3).
//
// The package also provides the binary-search baseline the paper compares
// against and an exhaustive grid sweep used by the experiment harness to
// chart ratio-versus-bound curves (Fig. 3).
package optim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Objective is a deterministic scalar function of one variable. For FRaZ the
// variable is the compressor's error bound and the value is the clamped
// squared distance between achieved and target compression ratio.
type Objective func(x float64) float64

// Evaluation records one objective evaluation.
type Evaluation struct {
	X float64
	F float64
}

// Options configures FindGlobalMin.
type Options struct {
	// Lower and Upper bound the search interval. Required: Lower < Upper.
	Lower, Upper float64
	// MaxIterations caps the number of objective evaluations. Zero selects
	// the default of 100.
	MaxIterations int
	// Cutoff terminates the search as soon as an evaluation is <= Cutoff.
	// A negative cutoff disables early termination.
	Cutoff float64
	// Seed makes the initial sample deterministic. The same seed always
	// produces the same search trajectory.
	Seed int64
}

// Result reports the outcome of an optimization run.
type Result struct {
	// X is the best point found and F its objective value.
	X float64
	F float64
	// Iterations is the number of objective evaluations performed.
	Iterations int
	// Converged is true when the cutoff was reached (false when the search
	// exhausted its iteration budget).
	Converged bool
	// History holds every evaluation in the order performed.
	History []Evaluation
}

// ErrBadInterval is returned when the search interval is empty or invalid.
var ErrBadInterval = errors.New("optim: invalid search interval")

const defaultMaxIterations = 100

// FindGlobalMin searches for the global minimum of obj on [Lower, Upper].
func FindGlobalMin(obj Objective, opts Options) (Result, error) {
	if obj == nil {
		return Result{}, errors.New("optim: nil objective")
	}
	if !(opts.Lower < opts.Upper) || math.IsNaN(opts.Lower) || math.IsNaN(opts.Upper) ||
		math.IsInf(opts.Lower, 0) || math.IsInf(opts.Upper, 0) {
		return Result{}, fmt.Errorf("%w: [%v, %v]", ErrBadInterval, opts.Lower, opts.Upper)
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	cutoff := opts.Cutoff
	rng := rand.New(rand.NewSource(opts.Seed))

	s := &searchState{
		obj:    obj,
		lower:  opts.Lower,
		upper:  opts.Upper,
		cutoff: cutoff,
		max:    maxIter,
		rng:    rng,
	}

	// Initial samples: both interval ends plus one random interior point,
	// mirroring Dlib's random initialization while guaranteeing the model
	// brackets the interval.
	initial := []float64{
		opts.Lower,
		opts.Upper,
		opts.Lower + float64((0.25+float64(0.5*rng.Float64()))*(opts.Upper-opts.Lower)),
	}
	for _, x := range initial {
		if s.done() {
			break
		}
		s.eval(x)
	}

	// Alternate LIPO exploration and quadratic refinement.
	for !s.done() {
		var candidate float64
		if len(s.history)%2 == 0 {
			candidate = s.lipoCandidate()
		} else {
			candidate = s.quadraticCandidate()
		}
		candidate = s.dedupe(candidate)
		s.eval(candidate)
	}

	return Result{
		X:          s.bestX,
		F:          s.bestF,
		Iterations: len(s.history),
		Converged:  s.converged,
		History:    s.history,
	}, nil
}

type searchState struct {
	obj       Objective
	lower     float64
	upper     float64
	cutoff    float64
	max       int
	rng       *rand.Rand
	history   []Evaluation
	sorted    []Evaluation // kept sorted by X
	bestX     float64
	bestF     float64
	converged bool
}

func (s *searchState) done() bool {
	return s.converged || len(s.history) >= s.max
}

func (s *searchState) eval(x float64) {
	if x < s.lower {
		x = s.lower
	}
	if x > s.upper {
		x = s.upper
	}
	f := s.obj(x)
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	ev := Evaluation{X: x, F: f}
	s.history = append(s.history, ev)
	idx := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].X >= x })
	s.sorted = append(s.sorted, Evaluation{})
	copy(s.sorted[idx+1:], s.sorted[idx:])
	s.sorted[idx] = ev
	if len(s.history) == 1 || f < s.bestF {
		s.bestX, s.bestF = x, f
	}
	if s.cutoff >= 0 && f <= s.cutoff {
		s.converged = true
	}
}

// lipoCandidate picks the minimiser of the piecewise-linear Lipschitz lower
// bound built from all evaluations so far. With a zero Lipschitz estimate
// (flat data) it falls back to splitting the widest unexplored gap.
func (s *searchState) lipoCandidate() float64 {
	pts := s.sorted
	if len(pts) < 2 {
		return s.lower + float64(s.rng.Float64()*(s.upper-s.lower))
	}
	// Estimate the Lipschitz constant from observed slopes, inflated
	// slightly so the bound stays admissible between samples.
	var k float64
	for i := 1; i < len(pts); i++ {
		dx := pts[i].X - pts[i-1].X
		if dx <= 0 {
			continue
		}
		slope := math.Abs(pts[i].F-pts[i-1].F) / dx
		if slope > k {
			k = slope
		}
	}
	k = float64(k * 1.1)

	if k == 0 || math.IsInf(k, 0) {
		return s.widestGapMidpoint()
	}

	bestVal := math.Inf(1)
	bestX := s.widestGapMidpoint()
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		dx := b.X - a.X
		if dx <= 0 {
			continue
		}
		// Minimum of max(a.F - k(x-a.X), b.F - k(b.X-x)) on [a.X, b.X].
		x := float64((a.X+b.X)/2) + (b.F-a.F)/(2*k)
		if x < a.X {
			x = a.X
		}
		if x > b.X {
			x = b.X
		}
		val := float64((a.F+b.F)/2) - float64(k*dx/2)
		// Prefer intervals with low bound values; break ties toward wide
		// intervals to keep exploring.
		val -= float64(1e-12 * dx)
		if val < bestVal {
			bestVal = val
			bestX = x
		}
	}
	return bestX
}

// quadraticCandidate fits a parabola through the best point and its closest
// neighbours and jumps to the parabola's minimum, clamped to the bracket.
// When the fit is degenerate it bisects toward the best point's larger gap.
func (s *searchState) quadraticCandidate() float64 {
	pts := s.sorted
	n := len(pts)
	if n < 3 {
		return s.widestGapMidpoint()
	}
	// Locate the best point in the sorted order.
	bi := 0
	for i, p := range pts {
		if p.F < pts[bi].F {
			bi = i
		}
	}
	lo := bi - 1
	hi := bi + 1
	if lo < 0 {
		lo, bi, hi = 0, 1, 2
	}
	if hi >= n {
		hi = n - 1
		bi = n - 2
		lo = n - 3
	}
	x0, x1, x2 := pts[lo].X, pts[bi].X, pts[hi].X
	f0, f1, f2 := pts[lo].F, pts[bi].F, pts[hi].F
	den := (x0 - x1) * (x0 - x2) * (x1 - x2)
	if den == 0 {
		return s.widestGapMidpoint()
	}
	a := (float64(x2*(f1-f0)) + float64(x1*(f0-f2)) + float64(x0*(f2-f1))) / den
	b := (float64(x2*x2*(f0-f1)) + float64(x1*x1*(f2-f0)) + float64(x0*x0*(f1-f2))) / den
	if a <= 0 {
		// Concave or flat fit: no interior minimum; bisect the wider side of
		// the best point instead.
		if x1-x0 > x2-x1 {
			return (x0 + x1) / 2
		}
		return (x1 + x2) / 2
	}
	x := -b / (2 * a)
	if x < x0 {
		x = x0
	}
	if x > x2 {
		x = x2
	}
	return x
}

// widestGapMidpoint returns the midpoint of the widest gap between samples,
// ensuring global coverage of the interval.
func (s *searchState) widestGapMidpoint() float64 {
	pts := s.sorted
	if len(pts) == 0 {
		return (s.lower + s.upper) / 2
	}
	bestGap := -1.0
	bestMid := (s.lower + s.upper) / 2
	prev := s.lower
	for i := 0; i <= len(pts); i++ {
		var cur float64
		if i == len(pts) {
			cur = s.upper
		} else {
			cur = pts[i].X
		}
		if gap := cur - prev; gap > bestGap {
			bestGap = gap
			bestMid = prev + float64(gap/2)
		}
		prev = cur
	}
	return bestMid
}

// dedupe nudges a candidate that coincides with an existing sample toward
// unexplored space so every iteration gains information.
func (s *searchState) dedupe(x float64) float64 {
	const rel = 1e-9
	span := s.upper - s.lower
	for _, p := range s.sorted {
		if math.Abs(p.X-x) <= rel*span {
			return s.widestGapMidpoint()
		}
	}
	return x
}

// --- baselines --------------------------------------------------------------

// MonotoneFunc is a scalar function assumed to be non-decreasing in x, such
// as an idealised ratio-versus-error-bound curve.
type MonotoneFunc func(x float64) float64

// BinarySearchResult reports the outcome of the binary-search baseline.
type BinarySearchResult struct {
	X          float64
	Value      float64
	Iterations int
	Converged  bool
	History    []Evaluation
}

// BinarySearch finds x in [lo, hi] with f(x) within tol of target, assuming
// f is non-decreasing. It is the baseline the paper contrasts with FRaZ's
// optimizer (§V-B1): on non-monotonic ratio curves it can converge to the
// wrong region, and even on monotonic ones it wastes evaluations walking in
// from the interval ends.
func BinarySearch(f MonotoneFunc, target, tol, lo, hi float64, maxIter int) (BinarySearchResult, error) {
	if !(lo < hi) {
		return BinarySearchResult{}, fmt.Errorf("%w: [%v, %v]", ErrBadInterval, lo, hi)
	}
	if maxIter <= 0 {
		maxIter = defaultMaxIterations
	}
	res := BinarySearchResult{}
	bestDist := math.Inf(1)
	for i := 0; i < maxIter; i++ {
		mid := (lo + hi) / 2
		v := f(mid)
		res.History = append(res.History, Evaluation{X: mid, F: v})
		res.Iterations++
		if d := math.Abs(v - target); d < bestDist {
			bestDist = d
			res.X = mid
			res.Value = v
		}
		if math.Abs(v-target) <= tol {
			res.Converged = true
			return res, nil
		}
		if v < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return res, nil
}

// GridSearch evaluates f at n evenly spaced points on [lo, hi] and returns
// every evaluation. It is used by the experiment harness to chart
// ratio-versus-bound curves exhaustively (paper Fig. 3 and Fig. 4).
func GridSearch(f Objective, lo, hi float64, n int) []Evaluation {
	if n < 2 || !(lo < hi) {
		return nil
	}
	out := make([]Evaluation, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = Evaluation{X: x, F: f(x)}
	}
	return out
}

// LogGridSearch evaluates f at n log-spaced points on [lo, hi], lo > 0.
// Error bounds span many orders of magnitude, so log spacing matches how
// compressor behaviour actually varies.
func LogGridSearch(f Objective, lo, hi float64, n int) []Evaluation {
	if n < 2 || !(lo < hi) || lo <= 0 {
		return nil
	}
	out := make([]Evaluation, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i < n; i++ {
		x := math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
		out[i] = Evaluation{X: x, F: f(x)}
	}
	return out
}
