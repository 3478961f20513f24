// Package quantize implements the linear-scaling quantizer used by the
// SZ-like compressor (stage 2) and the MGARD-like compressor's coefficient
// quantization.
//
// Given an absolute error bound e, a prediction p and a true value v, the
// quantization code is round((v - p) / (2e)); reconstructing p + 2e*code
// guarantees |v - v'| <= e. Codes whose magnitude exceeds the configured
// capacity are marked unpredictable and their values are stored verbatim by
// the caller.
package quantize

import (
	"fmt"
	"math"
)

// DefaultIntervals is the default number of quantization intervals,
// matching the SZ default of 65536 (the code must fit in a signed 17-bit
// range, i.e. [-32768, 32767] around zero).
const DefaultIntervals = 65536

// Quantizer maps prediction residuals to integer codes under an absolute
// error bound.
type Quantizer struct {
	// ErrorBound is the absolute error bound e. Must be > 0.
	ErrorBound float64
	// Intervals is the number of quantization intervals (capacity). Codes in
	// [-Intervals/2, Intervals/2-1] are representable; anything else is
	// unpredictable.
	Intervals int
}

// New returns a Quantizer for the given error bound with the default number
// of intervals. It returns an error when the bound is not positive or not
// finite.
func New(errorBound float64) (*Quantizer, error) {
	return NewWithIntervals(errorBound, DefaultIntervals)
}

// NewWithIntervals returns a Quantizer with an explicit interval capacity.
func NewWithIntervals(errorBound float64, intervals int) (*Quantizer, error) {
	if !(errorBound > 0) || math.IsInf(errorBound, 0) || math.IsNaN(errorBound) {
		return nil, fmt.Errorf("quantize: error bound must be positive and finite, got %v", errorBound)
	}
	if intervals < 4 {
		return nil, fmt.Errorf("quantize: intervals must be >= 4, got %d", intervals)
	}
	return &Quantizer{ErrorBound: errorBound, Intervals: intervals}, nil
}

// Quantize converts the difference between value and prediction into an
// integer code. ok is false when the residual does not fit in the code range
// (the caller should store the value verbatim). When ok is true, the
// reconstruction returned by Dequantize(pred, code) differs from value by at
// most ErrorBound.
func (q *Quantizer) Quantize(value, pred float64) (code int32, recon float64, ok bool) {
	diff := value - pred
	half := float64(q.Intervals / 2)
	c := math.Round(diff / (2 * q.ErrorBound))
	if math.IsNaN(c) || c >= half || c < -half {
		return 0, value, false
	}
	code = int32(c)
	recon = pred + float64(2*q.ErrorBound*float64(code))
	// Guard against floating-point rounding pushing the reconstruction just
	// outside the bound; in that rare case fall back to verbatim storage.
	if math.Abs(recon-value) > q.ErrorBound {
		return 0, value, false
	}
	return code, recon, true
}

// Dequantize reconstructs a value from a prediction and a quantization code.
// The product is rounded before the addition, as in Quantize, so no target
// fuses the two into one multiply-add: the decoder must compute the very
// reconstruction the encoder checked against the bound.
func (q *Quantizer) Dequantize(pred float64, code int32) float64 {
	return pred + float64(2*q.ErrorBound*float64(code))
}
