package core

import (
	"errors"
	"fmt"
)

// ErrInfeasible is the sentinel for tuning runs whose best achieved value
// lies outside the acceptance band. Results carry the same information in
// Result.Feasible, but a struct field cannot cross an error-returning API
// boundary: callers that seal, archive, or exit on the outcome need an
// errors.Is-able failure. Match with errors.Is(err, ErrInfeasible) and
// recover the closest observed configuration with errors.As on
// *InfeasibleError.
var ErrInfeasible = errors.New("fraz: tuning objective not reachable within the error-bound range")

// InfeasibleError reports an infeasible tuning outcome along with the
// closest configuration the search observed, so callers can decide whether
// to relax the tolerance, raise the maximum error, or switch compressors —
// the decision §V-B3 of the paper explicitly leaves to the user.
type InfeasibleError struct {
	// Compressor is the name of the tuned compressor.
	Compressor string
	// Objective names the tuned objective ("ratio", "psnr", ...) and Target
	// its requested value.
	Objective string
	Target    float64
	// TargetRatio echoes Target for the fixed-ratio objective (zero
	// otherwise); Tolerance is the objective's acceptance half-width
	// (fractional for ratio/PSNR, absolute for SSIM/max-error).
	TargetRatio float64
	Tolerance   float64
	// ClosestValue is the achieved objective value nearest the target among
	// all successful evaluations; ClosestRatio is the compression ratio at
	// the same bound (they coincide for the fixed-ratio objective).
	ClosestValue float64
	ClosestRatio float64
	// ErrorBound is the bound that produced ClosestValue.
	ErrorBound float64
	// CompressedSize is the compressed size in bytes at ErrorBound.
	CompressedSize int
}

func (e *InfeasibleError) Error() string {
	switch e.Objective {
	case "", "ratio":
		return fmt.Sprintf("%v: %s reached ratio %.3g (want %g ± %.0f%%, closest bound %g)",
			ErrInfeasible, e.Compressor, e.ClosestRatio, e.TargetRatio, e.Tolerance*100, e.ErrorBound)
	}
	return fmt.Sprintf("%v: %s reached %s %.4g (want %g, closest bound %g)",
		ErrInfeasible, e.Compressor, e.Objective, e.ClosestValue, e.Target, e.ErrorBound)
}

// Unwrap chains to the sentinel so errors.Is(err, ErrInfeasible) matches.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// Check returns nil for a feasible result and an *InfeasibleError describing
// the closest observed configuration otherwise. It is the bridge from the
// result-struct reporting the tuner uses internally (where an infeasible
// step is data, not failure — a series keeps tuning past it) to the error
// discipline of sealing APIs, which must not silently archive a container
// that misses its ratio contract.
func (r Result) Check() error {
	if r.Feasible {
		return nil
	}
	e := &InfeasibleError{
		Compressor:     r.Compressor,
		Objective:      r.Objective,
		Target:         r.Target,
		Tolerance:      r.Tolerance,
		ClosestValue:   r.AchievedValue,
		ClosestRatio:   r.AchievedRatio,
		ErrorBound:     r.ErrorBound,
		CompressedSize: r.CompressedSize,
	}
	if r.Objective == "ratio" {
		e.TargetRatio = r.Target
	}
	return e
}
