package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fraz/internal/pressio"
)

// TestSearchIsScaleInvariant tunes every registered lossy codec to one
// ratio target on the same field at three scales (× 2⁻¹⁰, 1, 2¹⁰ — exact in
// binary floating point, so the fields differ in nothing but their unit).
// Rescaling the data must not change whether the target is reachable, must
// leave a unit-free parameter (bits, planes, a fraction of the range) where
// it was, and must move a parameter in data units by the same factor —
// squared for a squared error. Bit counts must agree exactly; an error
// parameter within a factor of two, because every bound whose ratio is in
// band is a right answer and the optimiser's steps are not exactly
// scale-free, while a wrong unit is off by 2¹⁰ or 2²⁰. A parameter searched
// in the wrong unit usually fails on feasibility alone: a bit count capped by
// the value range has nowhere to go once the range drops below one.
func TestSearchIsScaleInvariant(t *testing.T) {
	// Range ≈ 8.6: at every scale the default floor of the search, 1e-9 of
	// the range (squared for a squared error), stays above the codecs'
	// declared lower limits, so no interval is clipped at one scale only.
	field := datasetBuffer(t, "NYX", "baryon_density")
	base, shape := field.Float32(), field.Shape
	scales := []float64{1.0 / 1024, 1, 1024}
	for _, codec := range pressio.Codecs() {
		unit := codec.Param.Unit
		if unit == pressio.UnitNone || !codec.SupportsShape(shape) {
			continue
		}
		results := make([]Result, len(scales))
		for i, k := range scales {
			data := make([]float32, len(base))
			for j, v := range base {
				data[j] = v * float32(k)
			}
			buf, err := pressio.NewBuffer(data, shape)
			if err != nil {
				t.Fatal(err)
			}
			tu, err := NewTuner(codec, Config{Objective: FixedRatio(8), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if results[i], err = tu.TuneBuffer(context.Background(), buf); err != nil {
				t.Fatalf("%s at scale %g: %v", codec.Name, k, err)
			}
		}
		ref := results[1]
		for i, k := range scales {
			got := results[i]
			if got.Feasible != ref.Feasible {
				t.Errorf("%s: feasible=%v at scale %g (ratio %.3g), %v at scale 1 (ratio %.3g)",
					codec.Name, got.Feasible, k, got.AchievedRatio, ref.Feasible, ref.AchievedRatio)
				continue
			}
			want := ref.ErrorBound
			switch unit {
			case pressio.UnitAbsError:
				want *= k
			case pressio.UnitSquaredError:
				want *= k * k
			}
			slack := 2.0
			if !unit.IsError() {
				slack = 1
			}
			if got.ErrorBound > want*slack || got.ErrorBound < want/slack {
				t.Errorf("%s: %s %g at scale %g, want %g (%g at scale 1)",
					codec.Name, codec.Param.Name, got.ErrorBound, k, want, ref.ErrorBound)
			}
		}
	}
}

// TestDataUnitLimitsNeedAnErrorParameter pins what MaxError and the search's
// floor (1e-9 of the value range) mean per unit: a pointwise error in data
// units bounds an error parameter after restating it in the parameter's
// unit, and MaxError is refused — naming the parameter — for a bit count,
// which it cannot limit.
func TestDataUnitLimitsNeedAnErrorParameter(t *testing.T) {
	buf := nyxBuffer(t)
	vr := buf.ValueRange()
	u := vr / 100
	for _, codec := range pressio.Codecs() {
		tu, err := NewTuner(codec, Config{Objective: FixedRatio(8), MaxError: u})
		if codec.Param.Unit.IsBitCount() {
			if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), codec.Param.Name) {
				t.Errorf("%s: MaxError accepted for a bit-count parameter (err=%v)", codec.Name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", codec.Name, err)
			continue
		}
		if !codec.Param.Unit.IsError() {
			continue
		}
		lo, hi, err := tu.searchRange(buf)
		if err != nil {
			t.Errorf("%s: %v", codec.Name, err)
			continue
		}
		wantLo, wantHi := vr*1e-9, u
		switch codec.Param.Unit {
		case pressio.UnitSquaredError:
			wantLo, wantHi = wantLo*wantLo, wantHi*wantHi
		case pressio.UnitRangeFraction:
			wantLo, wantHi = wantLo/vr, wantHi/vr
		}
		if math.Abs(lo-wantLo) > 1e-12*wantLo || math.Abs(hi-wantHi) > 1e-12*wantHi {
			t.Errorf("%s: search range [%g, %g], want [%g, %g]", codec.Name, lo, hi, wantLo, wantHi)
		}
	}
}
