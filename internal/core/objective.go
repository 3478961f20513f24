package core

import (
	"fmt"
	"math"
)

// This file defines the Objective abstraction: the quantity a tuning run
// drives the compressor's error bound toward. The paper tunes one objective
// — the compression ratio (Eq. 1) — but its future-work list (§VII) asks for
// "error bounds that correspond with the quality of a scientist's analysis
// result", and fixed-quality targets (PSNR, SSIM, maximum pointwise error)
// are as demanded in practice as fixed ratios (Tao et al., "Fixed-PSNR Lossy
// Compression for Scientific Data"; Di et al.'s error-bounded-compression
// survey). Every objective runs through the same search machinery — the
// clamped quadratic loss, the region-parallel MaxLIPO minimiser with an
// early-termination cutoff, and the time-step bound-reuse loop — so the
// objective only states what is measured, what value is wanted, and how
// acceptance is judged. Objectives that also state a model of how their
// value follows an error-magnitude bound (LogBoundFor: ratio, PSNR and
// max-error) are tuned model first on codecs with such a bound, and reach
// that search machinery only as the fallback; see model.go.

// Default acceptance tolerances per built-in objective. Ratio and PSNR
// tolerances are fractional (the band is target·(1±ε), matching the paper's
// Eq. 1); SSIM and max-error tolerances are absolute half-widths (target±ε),
// because SSIM lives on a fixed [0,1] scale where a fraction of the target
// collapses to a near-zero band, and a max-error promise is itself an
// absolute quantity.
const (
	// DefaultPSNRTolerance is the fractional PSNR band: ±5% of the target
	// (±3 dB at a 60 dB target).
	DefaultPSNRTolerance = 0.05
	// DefaultSSIMTolerance is the absolute SSIM band half-width.
	DefaultSSIMTolerance = 0.02
	// DefaultMaxErrorBandFraction sizes the default absolute max-error band:
	// one tenth of the requested error magnitude.
	DefaultMaxErrorBandFraction = 0.1
)

// Objective describes one tuning target: which quantity the search measures,
// the value it must reach, and the acceptance band around it. The zero value
// is not a valid objective — use a constructor (FixedRatio, FixedPSNR,
// FixedSSIM, FixedMaxError) and override Tolerance if the default band does
// not fit.
type Objective struct {
	// Name labels the objective ("ratio", "psnr", "ssim", "max-error"). It is
	// recorded in container headers, so archives are self-describing about
	// what was promised.
	Name string
	// Target is the requested value of the measured quantity.
	Target float64
	// Tolerance is the half-width of the acceptance band: a fraction of
	// Target when Relative is set (band target·(1±ε)), an absolute width
	// otherwise (band target±ε). Zero selects the objective's default.
	Tolerance float64
	// Relative marks Tolerance as fractional.
	Relative bool
	// Quality marks objectives measured on the decompressed data (PSNR,
	// SSIM, max-error). It sets three policies together:
	//   - every evaluation is a compress+decompress round trip whose full
	//     metric report is cached, instead of a compression alone;
	//   - the search partitions the error-bound range in log space, because
	//     quality follows the order of magnitude of the bound rather than its
	//     absolute value (the ratio search stays linear, as in the paper);
	//   - among in-band evaluations the one with the highest compression
	//     ratio wins, not the value closest to Target (see better). The
	//     fixed-ratio objective keeps the paper's closest-to-target rule.
	Quality bool
	// Achieved extracts the objective's value from one evaluation. It must
	// tolerate a nil Evaluation.Report (return NaN) so compress-only
	// evaluations degrade cleanly.
	Achieved func(ev Evaluation) float64
	// LogBoundFor, when set, is the objective's closed-form model: the
	// natural log of the error-magnitude bound at which a uniform-quantising
	// codec reconstructs a field of the given value range, stored in elements
	// of the given width in bits, with the given objective value. It must be
	// monotone in value. Setting it selects the model-first search (model.go)
	// on codecs whose parameter is an error magnitude: the model names the
	// first bound, and the same function linearises measured values, because
	// a codec that follows the model measures LogBoundFor(value) ≈ ln(bound)
	// — unit slope — so the distance to the wanted value is the step in
	// ln(bound) that corrects a miss.
	LogBoundFor func(value, valueRange float64, bits int) float64
	// MinRank and MaxRank bound the data ranks the objective is measurable
	// on (zero = unbounded). SSIM is an image metric: it needs a 2-D slice,
	// so tuning it on 1-D data would burn the whole round-trip budget
	// measuring NaNs; the tuner rejects such shapes upfront instead.
	MinRank, MaxRank int
}

// SupportsRank reports whether the objective is measurable on data of the
// given rank.
func (o Objective) SupportsRank(rank int) bool {
	if o.MinRank > 0 && rank < o.MinRank {
		return false
	}
	if o.MaxRank > 0 && rank > o.MaxRank {
		return false
	}
	return true
}

// FixedRatio targets the compression ratio ρt — the paper's objective. The
// acceptance band is ρt·(1±ε) with ε defaulting to DefaultTolerance.
func FixedRatio(target float64) Objective {
	return Objective{
		Name:     "ratio",
		Target:   target,
		Relative: true,
		Achieved: func(ev Evaluation) float64 { return ev.Ratio },
		// High-rate quantisation (the result behind Tao et al.'s closed form,
		// and the ratio-estimation line in Di et al.'s survey): halving the
		// bound costs one bit per value, so the bits per value, bits/ρ, fall
		// on a unit-slope line in log2(bound). Its offset belongs to the data
		// and is not known beforehand; the three bits under log2(range/bound)
		// written here only place the pilot probe, whose measurement then
		// takes their place.
		LogBoundFor: func(ratio, valueRange float64, bits int) float64 {
			return math.Log(valueRange) - (float64(bits)/ratio+3)*math.Ln2
		},
	}
}

// FixedPSNR targets the peak signal-to-noise ratio of the reconstruction in
// decibels. The acceptance band is target·(1±ε) with ε defaulting to
// DefaultPSNRTolerance.
func FixedPSNR(db float64) Objective {
	return Objective{
		Name:     "psnr",
		Target:   db,
		Relative: true,
		Quality:  true,
		Achieved: func(ev Evaluation) float64 {
			if ev.Report == nil {
				return math.NaN()
			}
			return ev.Report.PSNR
		},
		// Fixed-PSNR (Tao et al.): errors uniform in [−eb, eb] have RMSE
		// eb/√3, so PSNR = 20·log10(vr·√3/eb) and eb = vr·√3·10^(−PSNR/20).
		LogBoundFor: func(db, valueRange float64, _ int) float64 {
			return math.Log(valueRange*math.Sqrt(3)) - db*math.Ln10/20
		},
	}
}

// FixedSSIM targets the mean structural similarity of the central 2-D slice
// — the quality criterion cited by the paper's future-work discussion (Baker
// et al.'s SSIM threshold for valid climate analyses). The acceptance band
// is target±ε (absolute) with ε defaulting to DefaultSSIMTolerance.
func FixedSSIM(target float64) Objective {
	return Objective{
		Name:    "ssim",
		Target:  target,
		Quality: true,
		MinRank: 2,
		MaxRank: 3,
		Achieved: func(ev Evaluation) float64 {
			if ev.Report == nil {
				return math.NaN()
			}
			return ev.Report.SSIM
		},
	}
}

// FixedMaxError targets the maximum absolute pointwise error of the
// reconstruction: the tightest codec setting whose measured error spends the
// whole error budget u, rather than an error bound passed through verbatim.
// The acceptance band is target±ε (absolute) with ε defaulting to
// DefaultMaxErrorBandFraction·u.
func FixedMaxError(u float64) Objective {
	return Objective{
		Name:    "max-error",
		Target:  u,
		Quality: true,
		Achieved: func(ev Evaluation) float64 {
			if ev.Report == nil {
				return math.NaN()
			}
			return ev.Report.MaxError
		},
		// An error-bounded codec spends at most its bound, and on all but
		// the smoothest fields nearly all of it.
		LogBoundFor: func(u, _ float64, _ int) float64 { return math.Log(u) },
	}
}

// WithDefaults returns a copy of the objective with its default tolerance
// filled in (exported so the public package can mirror tuner defaulting).
func (o Objective) WithDefaults() Objective {
	if o.Tolerance > 0 {
		return o
	}
	switch o.Name {
	case "psnr":
		o.Tolerance = DefaultPSNRTolerance
	case "ssim":
		o.Tolerance = DefaultSSIMTolerance
	case "max-error":
		o.Tolerance = DefaultMaxErrorBandFraction * math.Abs(o.Target)
	default:
		o.Tolerance = DefaultTolerance
	}
	return o
}

// validate rejects objectives the search cannot drive toward.
func (o Objective) validate() error {
	if o.Name == "" {
		return fmt.Errorf("objective has no name")
	}
	if o.Achieved == nil {
		return fmt.Errorf("objective %s has no achieved-value extractor", o.Name)
	}
	if math.IsNaN(o.Target) || math.IsInf(o.Target, 0) {
		return fmt.Errorf("objective %s target %v", o.Name, o.Target)
	}
	if o.Name == "ratio" && !(o.Target > 1) {
		return fmt.Errorf("target ratio must be > 1, got %v", o.Target)
	}
	if o.Relative && !(o.Target > 0) {
		return fmt.Errorf("objective %s with a fractional tolerance needs a positive target, got %v", o.Name, o.Target)
	}
	if !(o.Tolerance > 0) || math.IsInf(o.Tolerance, 0) {
		return fmt.Errorf("objective %s tolerance %v (want > 0)", o.Name, o.Tolerance)
	}
	if o.Relative && o.Tolerance >= 1 {
		return fmt.Errorf("objective %s fractional tolerance %v (want < 1)", o.Name, o.Tolerance)
	}
	return nil
}

// HalfWidth is the absolute half-width of the acceptance band: ε·|target|
// for relative tolerances, ε itself for absolute ones. It is what container
// headers record, so readers need not know the band's semantics.
func (o Objective) HalfWidth() float64 {
	if o.Relative {
		return o.Tolerance * math.Abs(o.Target)
	}
	return o.Tolerance
}

// Band returns the absolute acceptance interval [lo, hi].
func (o Objective) Band() (lo, hi float64) {
	if o.Relative {
		return o.Target * (1 - o.Tolerance), o.Target * (1 + o.Tolerance)
	}
	return o.Target - o.Tolerance, o.Target + o.Tolerance
}

// InBand reports whether an achieved value lies inside the acceptance band
// (false for NaN): for the fixed-ratio objective, ρt(1−ε) ≤ ρr ≤ ρt(1+ε)
// (Eq. 1).
func (o Objective) InBand(v float64) bool {
	lo, hi := o.Band()
	return v >= lo && v <= hi
}

// better is the one rule that ranks two evaluations (TuneWithPrediction's
// epilogue applies it): in band beats out of band; of two in-band evaluations
// the higher ratio wins for a Quality objective (the quality is already
// good enough, so take the size win) and the value nearer the target
// otherwise (Algorithm 2, lines 17–26); out of band, the nearer value.
func (o Objective) better(a, b Evaluation) bool {
	inA, inB := o.InBand(a.Value), o.InBand(b.Value)
	switch {
	case inA != inB:
		return inA
	case inA && o.Quality:
		return a.Ratio > b.Ratio
	}
	return math.Abs(a.Value-o.Target) < math.Abs(b.Value-o.Target)
}

// Loss is the clamped quadratic l(v) = min((v − target)², γ) the search
// minimises — the paper's §V-B2 loss with the objective's value in place of
// the ratio.
func (o Objective) Loss(achieved float64) float64 {
	d := achieved - o.Target
	if v := d * d; v <= Gamma {
		return v
	}
	return Gamma // too far, or not a number
}

// DirectlySatisfiable reports whether the objective can be satisfied by
// codec capability alone, with zero search evaluations. Only the
// fixed-ratio objective qualifies: its achieved value is a pure function of
// the compressed size, so a true fixed-rate codec (one whose descriptor has
// a pressio.Codec.Size) can invert the target into its bits-per-value
// parameter arithmetically. On any other codec a ratio rests on at least one
// measured evaluation, as every quality objective (PSNR/SSIM/max-error) does
// — those are measured on the reconstruction, which no capability predicts
// exactly: ratio, PSNR and max-error on an error-magnitude codec take the
// model-first search (model.go, one to eight evaluations), SSIM and the
// remaining codecs the region search.
func (o Objective) DirectlySatisfiable() bool {
	return o.Name == "ratio" && !o.Quality
}

// SearchCutoff returns the early-termination threshold for the modified
// global minimiser: the squared half-width of the acceptance band, which for
// the fixed-ratio objective is the paper's ε²ρt² (§V-B3).
func (o Objective) SearchCutoff() float64 {
	if o.Relative {
		return o.Tolerance * o.Tolerance * o.Target * o.Target
	}
	return o.Tolerance * o.Tolerance
}
