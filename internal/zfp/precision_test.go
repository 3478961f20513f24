package zfp

import (
	"math"
	"testing"

	"fraz/internal/grid"
	"fraz/internal/metrics"
)

func TestFixedPrecisionRoundTrip(t *testing.T) {
	data, shape := smooth3D(15, 17, 19, 21)
	for _, prec := range []int{8, 16, 24, 32} {
		comp, err := Compress(data, shape, Options{Mode: ModeFixedPrecision, Precision: prec})
		if err != nil {
			t.Fatalf("precision %d: %v", prec, err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatalf("precision %d: %v", prec, err)
		}
		if len(dec) != len(data) {
			t.Fatalf("precision %d: length mismatch", prec)
		}
	}
}

func TestFixedPrecisionQualityImprovesWithPrecision(t *testing.T) {
	data, shape := smooth3D(20, 20, 20, 22)
	var prevPSNR float64 = -math.MaxFloat64
	var prevSize int
	for _, prec := range []int{6, 12, 20, 28} {
		comp, err := Compress(data, shape, Options{Mode: ModeFixedPrecision, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatal(err)
		}
		psnr := metrics.PSNR(data, dec)
		if psnr < prevPSNR {
			t.Errorf("PSNR should not decrease with precision: %v at %d planes (prev %v)", psnr, prec, prevPSNR)
		}
		if len(comp) < prevSize {
			t.Errorf("compressed size should not shrink with precision: %d at %d planes (prev %d)", len(comp), prec, prevSize)
		}
		prevPSNR = psnr
		prevSize = len(comp)
	}
	if prevPSNR < 60 {
		t.Errorf("28 bit planes should reconstruct smooth data above 60 dB, got %v", prevPSNR)
	}
}

func TestFixedPrecisionControlsRelativeError(t *testing.T) {
	// Fixed precision keeps a constant number of planes below each block's
	// exponent, so blocks with large values get proportionally larger
	// absolute error — a relative-error-like behaviour.
	shape := grid.MustDims(4, 4, 4)
	small := make([]float32, shape.Len())
	large := make([]float32, shape.Len())
	for i := range small {
		small[i] = float32(1 + 0.001*float64(i%7))
		large[i] = small[i] * 1e6
	}
	run := func(data []float32) float64 {
		comp, err := Compress(data, shape, Options{Mode: ModeFixedPrecision, Precision: 16})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatal(err)
		}
		return metrics.MaxAbsError(data, dec)
	}
	errSmall := run(small)
	errLarge := run(large)
	if errSmall == 0 && errLarge == 0 {
		t.Skip("both reconstructions exact at this precision")
	}
	if !(errLarge > errSmall*1e3) {
		t.Errorf("absolute error should scale with magnitude under fixed precision: small=%g large=%g", errSmall, errLarge)
	}
}

func TestFixedPrecisionInvalidOptions(t *testing.T) {
	data := make([]float32, 16)
	shape := grid.MustDims(16)
	if _, err := Compress(data, shape, Options{Mode: ModeFixedPrecision, Precision: 0}); err == nil {
		t.Errorf("zero precision should fail")
	}
	if _, err := Compress(data, shape, Options{Mode: ModeFixedPrecision, Precision: 40}); err == nil {
		t.Errorf("precision above 32 should fail")
	}
}

func TestFixedPrecisionModeString(t *testing.T) {
	if ModeFixedPrecision.String() != "fixed-precision" {
		t.Errorf("unexpected mode name %q", ModeFixedPrecision.String())
	}
}
