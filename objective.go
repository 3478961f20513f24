package fraz

import (
	"fmt"
	"math"

	"fraz/internal/core"
	"fraz/internal/grid"
	"fraz/internal/metrics"
)

// Objective selects the quantity Compress and Tune drive the codec's
// parameter toward. The paper's fixed compression ratio is one objective
// among four: FixedRatio targets storage (ρt within a fractional band),
// while FixedPSNR, FixedSSIM, and FixedMaxError target the reconstruction's
// quality — the "error bounds that correspond with the quality of a
// scientist's analysis result" of the paper's future-work list. Every
// objective shares the time-step bound reuse, the evaluation cache and the
// acceptance test on a measured value; pass one to New via Target (or the
// TargetPSNR / TargetSSIM / TargetMaxError sugar).
//
// Quality objectives measure each candidate bound on the reconstructed data
// (a round trip and a quality report per evaluation, cached; sz and szx
// take the reconstruction from their encoder, the other codecs decompress),
// so one of their evaluations costs more than one of FixedRatio's. FixedPSNR and
// FixedMaxError make up for it on error-bounded codecs, where they are
// tuned model first — a closed-form first bound and a sequential bracket,
// one to eight evaluations — with the region-parallel search as the
// fallback; FixedSSIM, and every objective on a rate or precision codec,
// takes the region-parallel search. The achieved value is recorded in the
// .fraz container header, making archives self-describing about what was
// promised; `fraz -verify` recomputes it.
type Objective struct {
	obj core.Objective
	err error
}

// FixedRatio targets the compression ratio ρt (> 1): the paper's objective,
// and what the Ratio option constructs. The default acceptance band is
// ρt·(1±0.1); adjust it with Tolerance or WithTolerance (fractional).
func FixedRatio(target float64) Objective {
	if !(target > 1) || math.IsInf(target, 0) || math.IsNaN(target) {
		return Objective{err: fmt.Errorf("fraz: Ratio must be > 1, got %v", target)}
	}
	return Objective{obj: core.FixedRatio(target)}
}

// FixedPSNR targets the reconstruction's peak signal-to-noise ratio in
// decibels (> 0). The default acceptance band is target·(1±0.05) — ±3 dB at
// 60 dB; the tolerance is fractional.
func FixedPSNR(db float64) Objective {
	if !(db > 0) || math.IsInf(db, 0) || math.IsNaN(db) {
		return Objective{err: fmt.Errorf("fraz: PSNR target must be a positive number of decibels, got %v", db)}
	}
	return Objective{obj: core.FixedPSNR(db)}
}

// FixedSSIM targets the mean structural similarity of the field's central
// 2-D slice, in (0, 1]. The default acceptance band is target±0.02; the
// tolerance is absolute. Requires 2-D or 3-D data (SSIM is an image metric).
func FixedSSIM(target float64) Objective {
	if !(target > 0) || target > 1 || math.IsNaN(target) {
		return Objective{err: fmt.Errorf("fraz: SSIM target must be in (0, 1], got %v", target)}
	}
	return Objective{obj: core.FixedSSIM(target)}
}

// FixedMaxError targets the measured maximum absolute pointwise error of the
// reconstruction (> 0): the codec setting that spends the whole error budget
// u, rather than an error bound passed through verbatim (codecs routinely
// undershoot their bound). The default acceptance band is u±0.1·u; the
// tolerance is absolute.
func FixedMaxError(u float64) Objective {
	if !(u > 0) || math.IsInf(u, 0) || math.IsNaN(u) {
		return Objective{err: fmt.Errorf("fraz: max-error target must be > 0, got %v", u)}
	}
	return Objective{obj: core.FixedMaxError(u)}
}

// WithTolerance returns a copy of the objective with its acceptance
// half-width replaced: fractional for FixedRatio and FixedPSNR (band
// target·(1±tol), tol in (0,1)), absolute for FixedSSIM and FixedMaxError
// (band target±tol). Unlike the Tolerance option — which is capped to [0,1)
// for compatibility with its fractional origins — WithTolerance admits any
// positive width an absolute band needs (e.g. a max-error target of 100±5).
func (o Objective) WithTolerance(tol float64) Objective {
	if o.err != nil {
		return o
	}
	if !(tol > 0) || math.IsInf(tol, 0) {
		return Objective{err: fmt.Errorf("fraz: objective tolerance must be > 0, got %v", tol)}
	}
	o.obj.Tolerance = tol
	return o
}

// Name reports the objective's registered name: "ratio", "psnr", "ssim", or
// "max-error". It is what container headers record.
func (o Objective) Name() string { return o.obj.Name }

// Target reports the requested objective value.
func (o Objective) Target() float64 { return o.obj.Target }

// Band reports the absolute acceptance interval [lo, hi] a tuned result
// must land in, with the objective's default tolerance resolved — the same
// band a Client built from this objective enforces.
func (o Objective) Band() (lo, hi float64) {
	return o.obj.WithDefaults().Band()
}

// DirectlySatisfiable reports whether this objective, paired with the
// described codec, is satisfiable by capability alone — no search, zero
// tuning evaluations. True only for FixedRatio with a fixed-rate codec
// (CodecInfo.FixedRate): the codec's compressed size is a closed-form
// function of its bits-per-value parameter, so the target ratio is
// inverted arithmetically. A Client detecting this combination seals with
// CompressResult.Evaluations == 0 and Direct == true; quality objectives
// always rest on at least one measured evaluation.
func (o Objective) DirectlySatisfiable(ci CodecInfo) bool {
	return o.err == nil && o.obj.DirectlySatisfiable() && ci.FixedRate
}

// Measure computes the objective's value for a reconstruction of original
// with the given shape; compressedBytes sizes the ratio computation (pass 0
// when unknown — quality objectives do not need it). It is how `fraz
// -verify` and callers with their own storage pipelines recompute an
// archive's recorded promise.
func (o Objective) Measure(original, reconstructed []float32, shape []int, compressedBytes int) (float64, error) {
	return MeasureT(o, original, reconstructed, shape, compressedBytes)
}

// Measure64 is Measure for double-precision fields.
func (o Objective) Measure64(original, reconstructed []float64, shape []int, compressedBytes int) (float64, error) {
	return MeasureT(o, original, reconstructed, shape, compressedBytes)
}

// MeasureT is the dtype-generic form of Objective.Measure (Go methods
// cannot take type parameters, so the generic entry point is a package
// function over the objective).
func MeasureT[T Element](o Objective, original, reconstructed []T, shape []int, compressedBytes int) (float64, error) {
	if o.err != nil {
		return 0, o.err
	}
	dims, err := grid.NewDims(shape...)
	if err != nil {
		return 0, fmt.Errorf("fraz: invalid shape %v: %w", shape, err)
	}
	rep, err := metrics.EvaluateGrid(original, reconstructed, dims, compressedBytes)
	if err != nil {
		return 0, fmt.Errorf("fraz: measuring %s: %w", o.obj.Name, err)
	}
	v := o.obj.Achieved(core.Evaluation{
		Ratio:          rep.CompressionRatio,
		CompressedSize: compressedBytes,
		Report:         &rep,
	})
	if math.IsNaN(v) {
		return 0, fmt.Errorf("fraz: objective %s is not measurable on shape %v", o.obj.Name, shape)
	}
	return v, nil
}

// ObjectiveByName reconstructs a built-in objective from its registered name
// and target — the inverse of the container header's objective record, used
// to re-verify archives:
//
//	obj, err := fraz.ObjectiveByName(res.Objective.Name, res.Objective.Target)
//	achieved, err := obj.Measure(original, res.Data, res.Shape, res.CompressedBytes)
func ObjectiveByName(name string, target float64) (Objective, error) {
	var o Objective
	switch name {
	case "ratio":
		o = FixedRatio(target)
	case "psnr":
		o = FixedPSNR(target)
	case "ssim":
		o = FixedSSIM(target)
	case "max-error":
		o = FixedMaxError(target)
	default:
		return Objective{}, fmt.Errorf("fraz: unknown objective %q (have ratio, psnr, ssim, max-error)", name)
	}
	return o, o.err
}
