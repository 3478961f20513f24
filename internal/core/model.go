package core

import "math"

// This file implements the model-first search: predict, then bracket.
//
// The region search exists because SZ's ratio curve is not monotone (paper
// Fig. 3). It is monotone between its teeth, though, and PSNR and maximum
// error are throughout: on a codec whose parameter is an error magnitude all
// three follow the bound, and all three have a closed form for a uniform
// quantiser (Objective.LogBoundFor). So instead of K regions × 24 MaxLIPO
// iterations, the tuner asks the model for the bound, measures it, and
// corrects a miss along the model's unit slope. Every probe is an ordinary
// evaluation — through the shared cache, judged by the same InBand test on
// the measured value — and only a measured in-band evaluation is ever
// accepted; the model decides where to look, never what to believe. When the
// probes run out with the target still between two of them — a curve with
// teeth narrower than the band — the bisection (run.bisect) goes on halving
// that gap; when it closes on a step of a staircase curve with no in-band
// bound found, the region search (the paper's Algorithm 2) runs as before,
// with these probes already in the cache.
//
// The probes are sequential, so the outcome depends on the data and the
// objective alone — not on Workers, GOMAXPROCS or the seed.

// modelProbeBudget caps the evaluations the model-first search may spend,
// a reused prediction that missed included. A curve that follows the model
// needs one or two; eight leaves room for a parameter that is not the error
// magnitude itself (mgard:l2's is its square, sz:rel's a share of the
// range) to be corrected along the way.
const modelProbeBudget = 8

// model is the third rung: it probes at most modelProbeBudget bounds in
// [lo, hi], appends them to the run's list in probe order, and reports
// whether any of them landed in band (which of those the run seals at is the
// epilogue's pick). A reused prediction that was measured and missed, the
// list's entry so far, is the first point of the search and counts against
// the budget.
//
// The search runs in (x, y) = (ln bound, LogBoundFor(measured value)), where
// a codec that follows the model lies on y = x. Objective.better says where
// in the band to aim, and so which in-band hit is taken as it is (settled). A
// Quality objective aims an eighth of the band in from the high-ratio
// edge — inside the band by enough to absorb the model's error, near the
// edge because that is where the ratio is — and takes a hit in the high-ratio
// half. The ratio is ranked by distance to its target, so it aims there and
// takes a hit in the inner half of the band: the archive's ratio is the
// sample's only roughly. Its model leaves the offset to the data, so the
// first bound is a pilot: an error in data units, restated in the
// parameter's unit as searchRange does MaxError.
func (r *run) model(lo, hi float64) bool {
	t := r.t
	vr, bits := r.buf.ValueRange(), 8*r.buf.DType().Size()
	toY := func(v float64) float64 { return t.obj.LogBoundFor(v, vr, bits) }
	yAim := toY(t.obj.Target)
	first := math.Log(t.inUnit(math.Exp(yAim), vr))
	settled := func(v float64) bool { return 2*math.Abs(v-t.obj.Target) <= t.obj.HalfWidth() }
	if t.obj.Quality {
		// The high-ratio edge of the band is the one the model gives the
		// larger bound.
		far, edge := t.obj.Band()
		if yAim > toY(edge) {
			far, edge = edge, far
		}
		yAim = toY(edge + (far-edge)/8)
		first = yAim
		settled = func(v float64) bool { return (v-t.obj.Target)*(edge-t.obj.Target) >= 0 }
	}
	start := len(r.evals) // the search's first point
	var tried []float64   // cache slots probed: bounds that share one are one probe
	if start > 0 && r.evals[start-1].measured() {
		start--
		tried = append(tried, r.evals[start].ErrorBound)
	}
	if math.IsNaN(yAim) || math.IsInf(yAim, 0) {
		return false // a constant field, or a target the model has no bound for
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

	x := first
	if len(tried) > 0 && note(r.evals[start]) {
		x = next()
	}
	refining, acceptable := false, false
probing:
	for len(r.evals)-start < modelProbeBudget && r.ctx.Err() == nil {
		bound := math.Min(math.Max(math.Exp(x), lo), hi)
		q := t.codec.Param.Slot(bound)
		for _, seen := range tried {
			if seen == q { //frazlint:allow floateq -- slot values are grid points, equal or a spacing apart
				break probing // the bracket has closed, or the range has ended
			}
		}
		tried = append(tried, q)
		ev := r.measure(&r.evals, RungModel, 0, bound)
		if !ev.measured() || !note(ev) {
			break
		}
		if t.obj.InBand(ev.Value) {
			acceptable = true
			// A settled hit is taken as it is. Any other buys a single further
			// probe toward the aim, and the better of the two in-band points
			// is kept.
			if refining || settled(ev.Value) {
				break
			}
			refining = true
		} else if refining {
			break
		}
		x = next()
	}
	return acceptable
}
