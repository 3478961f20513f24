package core

import (
	"context"
	"math"

	"fraz/internal/parallel"
	"fraz/internal/pressio"
)

// This file implements the model-first search: predict, then bracket.
//
// The region search exists because SZ's ratio curve is not monotone (paper
// Fig. 3). PSNR and maximum error are: on a codec whose parameter is an
// error magnitude both follow the bound, and both have a closed form for a
// uniform quantiser (Objective.LogBoundFor). So instead of K regions × 24
// MaxLIPO iterations of compress + decompress + metrics, the tuner asks the
// model for the bound, measures it, and corrects a miss along the model's
// unit slope. Every probe is an ordinary evaluation — through the shared
// cache, judged by the same InBand test on the measured value — and only a
// measured in-band evaluation is ever accepted; the model decides where to
// look, never what to believe. When the probes run out, or the bracket
// closes on a step of a staircase curve with no in-band bound found, the
// region search runs as before, with these probes already in the cache.
//
// The probes are sequential, so the outcome depends on the data and the
// objective alone — not on Workers, GOMAXPROCS or the seed.

// modelProbeBudget caps the evaluations the model-first search may spend,
// a reused prediction that missed included. A curve that follows the model
// needs one or two; eight leaves room for a parameter that is not the error
// magnitude itself (mgard:l2's is its square, sz:rel's a share of the
// range) to be corrected along the way.
const modelProbeBudget = 8

// modelSearch probes at most modelProbeBudget bounds in [lo, hi] and returns
// them in probe order as a region result, plus the evaluation to seal at —
// nil when none of them landed in band. seed is a reused prediction that
// was measured and missed; it is the first point of the search and counts
// against the budget, but not in the returned Iterations (its caller
// already billed it).
//
// The search runs in (x, y) = (ln bound, LogBoundFor(measured value)), where
// a codec that follows the model lies on y = x. It aims an eighth of the
// band in from the high-ratio edge: inside the band by enough to absorb the
// model's error, near the edge because that is where the ratio is.
func (t *Tuner) modelSearch(ctx context.Context, measure func(float64) (Evaluation, error), buf pressio.Buffer, lo, hi float64, seed *Evaluation) (RegionResult, *Evaluation) {
	vr := buf.ValueRange()
	toY := func(v float64) float64 { return t.obj.LogBoundFor(v, vr) }
	// The high-ratio edge of the band is the one the model gives the larger
	// bound.
	far, edge := t.obj.Band()
	if toY(t.obj.Target) > toY(edge) {
		far, edge = edge, far
	}
	yAim := toY(edge + (far-edge)/8)
	rr := RegionResult{Region: parallel.Region{Lower: math.Log(lo), Upper: math.Log(hi)}, Started: true}
	if math.IsNaN(yAim) || math.IsInf(yAim, 0) {
		return rr, nil // a constant field, or a target the model has no bound for
	}

	// below and above are the probes that bracket the aim most tightly in x;
	// stalled is set when a probe fell on the same side of the aim as the
	// probe before it.
	type point struct{ x, y float64 }
	var below, above, prev, last *point
	stalled := false
	note := func(ev Evaluation) bool {
		p := &point{math.Log(ev.ErrorBound), toY(ev.Value)}
		if math.IsNaN(p.y) || math.IsInf(p.y, 0) {
			return false
		}
		low := p.y < yAim
		if low && (below == nil || p.x > below.x) {
			below = p
		}
		if !low && (above == nil || p.x < above.x) {
			above = p
		}
		stalled = last != nil && low == (last.y < yAim)
		prev, last = last, p
		// A bracket the wrong way round means the curve is not monotone
		// here: not this search's case.
		return below == nil || above == nil || below.x < above.x
	}
	next := func() float64 {
		if below == nil || above == nil {
			// One side only: step along the model's unit slope, or along the
			// slope the last two probes measured (mgard:l2's parameter is a
			// squared error, slope ½; a saturated curve is flat), kept within
			// a factor of four of the model's.
			slope := 1.0
			if prev != nil {
				if dx := last.x - prev.x; dx != 0 {
					slope = math.Min(math.Max((last.y-prev.y)/dx, 0.25), 4)
				}
			}
			return last.x + (yAim-last.y)/slope
		}
		// Regula falsi, kept a quarter of the bracket away from either end;
		// after two probes running on one side — a stepped or sharply curved
		// y pins the other end — bisect instead.
		w := above.x - below.x
		if stalled {
			return below.x + w/2
		}
		x := below.x + w*(yAim-below.y)/(above.y-below.y)
		return math.Min(math.Max(x, below.x+w/4), above.x-w/4)
	}

	var tried []uint64 // cache slots probed: bounds that share one are one probe
	x := yAim
	if seed != nil {
		rr.Evaluations = append(rr.Evaluations, *seed)
		tried = append(tried, slot(seed.ErrorBound))
		if note(*seed) {
			x = next()
		}
	}
	best := -1
	refining := false
probing:
	for len(rr.Evaluations) < modelProbeBudget && ctx.Err() == nil {
		bound := math.Min(math.Max(math.Exp(x), lo), hi)
		q := slot(bound)
		for _, seen := range tried {
			if seen == q {
				break probing // the bracket has closed, or the range has ended
			}
		}
		tried = append(tried, q)
		ev, err := measure(bound)
		rr.Iterations++
		if err != nil || math.IsNaN(ev.Value) {
			break
		}
		rr.Evaluations = append(rr.Evaluations, ev)
		if !note(ev) {
			break
		}
		if t.obj.InBand(ev.Value) {
			if best < 0 || ev.Ratio > rr.Evaluations[best].Ratio {
				best = len(rr.Evaluations) - 1
			}
			// A hit in the high-ratio half of the band is taken as it is. One
			// in the other half buys a single further probe toward the aim,
			// and the higher ratio of the two in-band points is kept.
			if refining || (ev.Value-t.obj.Target)*(edge-t.obj.Target) >= 0 {
				break
			}
			refining = true
		} else if refining {
			break
		}
		x = next()
	}
	rr.Best = closest(rr.Evaluations, t.obj.Target)
	if best < 0 {
		return rr, nil
	}
	rr.Acceptable = true
	return rr, &rr.Evaluations[best]
}

// slot identifies the evaluation-cache slot a bound falls in.
func slot(bound float64) uint64 { return math.Float64bits(pressio.QuantizeBound(bound)) }

// closest returns the evaluation whose value is nearest the target (the
// zero Evaluation for an empty list).
func closest(evs []Evaluation, target float64) Evaluation {
	var out Evaluation
	bestDist := math.Inf(1)
	for _, ev := range evs {
		if d := math.Abs(ev.Value - target); d < bestDist {
			bestDist, out = d, ev
		}
	}
	return out
}
