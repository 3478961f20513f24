package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fraz/internal/grid"
)

func TestEvaluateIdenticalArrays(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5}
	rep, err := Evaluate(data, data, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RMSE != 0 || rep.MaxError != 0 {
		t.Errorf("identical arrays should have zero error, got %+v", rep)
	}
	if !math.IsInf(rep.PSNR, 1) {
		t.Errorf("PSNR of identical arrays should be +Inf, got %v", rep.PSNR)
	}
	if rep.CompressionRatio != 2.0 {
		t.Errorf("CR = %v, want 2", rep.CompressionRatio)
	}
	if rep.BitRate != 16 {
		t.Errorf("BitRate = %v, want 16", rep.BitRate)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate([]float32{1}, []float32{1, 2}, 1, 4); err != ErrLengthMismatch {
		t.Errorf("expected length mismatch error, got %v", err)
	}
	if _, err := Evaluate[float32](nil, nil, 1, 4); err == nil {
		t.Errorf("empty input should fail")
	}
}

func TestEvaluateDefaultsElementBytes(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	rep, err := Evaluate(data, data, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OriginalBytes != 16 {
		t.Errorf("OriginalBytes = %d, want 16", rep.OriginalBytes)
	}
}

func TestKnownRMSEandPSNR(t *testing.T) {
	orig := []float32{0, 0, 0, 0}
	recon := []float32{1, -1, 1, -1}
	if got := RMSE(orig, recon); math.Abs(got-1) > 1e-12 {
		t.Errorf("RMSE = %v, want 1", got)
	}
	// value range is 0 here so PSNR is -Inf
	if got := PSNR(orig, recon); !math.IsInf(got, -1) {
		t.Errorf("PSNR with zero range should be -Inf, got %v", got)
	}

	orig2 := []float32{0, 10}
	recon2 := []float32{1, 10}
	// rmse = sqrt(0.5), range = 10 => psnr = 20*log10(10/sqrt(0.5))
	want := 20 * math.Log10(10/math.Sqrt(0.5))
	if got := PSNR(orig2, recon2); math.Abs(got-want) > 1e-9 {
		t.Errorf("PSNR = %v, want %v", got, want)
	}
}

func TestMaxAbsError(t *testing.T) {
	orig := []float32{1, 2, 3}
	recon := []float32{1.5, 2, 0}
	if got := MaxAbsError(orig, recon); math.Abs(got-3) > 1e-9 {
		t.Errorf("MaxAbsError = %v, want 3", got)
	}
	if !math.IsNaN(MaxAbsError(orig, orig[:2])) {
		t.Errorf("length mismatch should return NaN")
	}
	if !math.IsNaN(RMSE[float32](nil, nil)) {
		t.Errorf("empty RMSE should return NaN")
	}
}

func TestErrorAutocorrelation(t *testing.T) {
	// Perfectly alternating error has lag-1 autocorrelation close to -1.
	orig := make([]float32, 1000)
	recon := make([]float32, 1000)
	for i := range orig {
		if i%2 == 0 {
			recon[i] = 1
		} else {
			recon[i] = -1
		}
	}
	acf := ErrorAutocorrelation(orig, recon)
	if acf > -0.9 {
		t.Errorf("alternating error should have strongly negative ACF, got %v", acf)
	}
	// Constant error has zero variance; defined as 0.
	for i := range recon {
		recon[i] = 1
	}
	if got := ErrorAutocorrelation(orig, recon); got != 0 {
		t.Errorf("constant error ACF = %v, want 0", got)
	}
	// Slowly varying (smooth) error has positive ACF.
	for i := range recon {
		recon[i] = float32(math.Sin(float64(i) / 50))
	}
	if got := ErrorAutocorrelation(orig, recon); got < 0.9 {
		t.Errorf("smooth error should have ACF near 1, got %v", got)
	}
	if got := ErrorAutocorrelation(orig, orig[:10]); got != 0 {
		t.Errorf("length mismatch ACF should be 0, got %v", got)
	}
}

func TestCompressionRatioAndBitRate(t *testing.T) {
	if CompressionRatio(100, 10) != 10 {
		t.Errorf("CR wrong")
	}
	if CompressionRatio(100, 0) != 0 {
		t.Errorf("CR with zero compressed size should be 0")
	}
	if BitRate(10, 10) != 8 {
		t.Errorf("BitRate wrong")
	}
	if BitRate(10, 0) != 0 {
		t.Errorf("BitRate with zero elements should be 0")
	}
}

func TestSSIMIdentical(t *testing.T) {
	shape := grid.MustDims(32, 32)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = rng.Float32()
	}
	s, err := SSIM(data, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("SSIM of identical images = %v, want 1", s)
	}
}

func TestSSIMDegradesWithNoise(t *testing.T) {
	shape := grid.MustDims(64, 64)
	orig := make([]float32, shape.Len())
	for i := range orig {
		y, x := i/64, i%64
		orig[i] = float32(math.Sin(float64(x)/8) * math.Cos(float64(y)/8))
	}
	rng := rand.New(rand.NewSource(9))
	small := make([]float32, len(orig))
	large := make([]float32, len(orig))
	for i := range orig {
		small[i] = orig[i] + float32(rng.NormFloat64())*0.01
		large[i] = orig[i] + float32(rng.NormFloat64())*0.5
	}
	sSmall, err := SSIM(orig, small, shape)
	if err != nil {
		t.Fatal(err)
	}
	sLarge, err := SSIM(orig, large, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !(sSmall > sLarge) {
		t.Errorf("SSIM should degrade with noise: small=%v large=%v", sSmall, sLarge)
	}
	if sSmall < 0.9 {
		t.Errorf("small-noise SSIM unexpectedly low: %v", sSmall)
	}
}

func TestSSIMErrors(t *testing.T) {
	if _, err := SSIM(make([]float32, 8), make([]float32, 8), grid.MustDims(8)); err == nil {
		t.Errorf("1-D shape should fail")
	}
	if _, err := SSIM(make([]float32, 4), make([]float32, 3), grid.MustDims(2, 2)); err == nil {
		t.Errorf("length mismatch should fail")
	}
}

func TestSSIMSmallImage(t *testing.T) {
	shape := grid.MustDims(4, 4)
	data := make([]float32, 16)
	for i := range data {
		data[i] = float32(i)
	}
	s, err := SSIM(data, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("small-image SSIM of identical data = %v", s)
	}
}

func TestSSIMConstantImage(t *testing.T) {
	shape := grid.MustDims(16, 16)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = 3.5
	}
	s, err := SSIM(data, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("constant image SSIM = %v, want 1", s)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{CompressionRatio: 10, BitRate: 3.2, PSNR: 60, MaxError: 0.01, ErrorACF: 0.5}
	if rep.String() == "" {
		t.Errorf("String should not be empty")
	}
}

func TestPropertyPSNRDecreasesWithError(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 256
		orig := make([]float32, n)
		for i := range orig {
			orig[i] = rng.Float32() * 100
		}
		r1 := make([]float32, n)
		r2 := make([]float32, n)
		for i := range orig {
			noise := rng.NormFloat64()
			r1[i] = orig[i] + float32(noise*0.01)
			r2[i] = orig[i] + float32(noise*1.0)
		}
		return PSNR(orig, r1) > PSNR(orig, r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRMSENonNegative(t *testing.T) {
	f := func(a, b []float32) bool {
		if len(a) != len(b) {
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			a, b = a[:n], b[:n]
		}
		if len(a) == 0 {
			return true
		}
		for i := range a {
			if math.IsNaN(float64(a[i])) || math.IsInf(float64(a[i]), 0) ||
				math.IsNaN(float64(b[i])) || math.IsInf(float64(b[i]), 0) {
				return true
			}
		}
		return RMSE(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateGridFillsSSIM(t *testing.T) {
	shape := grid.MustDims(4, 16, 16)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 7))
	}
	rep, err := EvaluateGrid(data, data, shape, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.SSIM-1) > 1e-9 {
		t.Errorf("SSIM of identical data = %v, want 1", rep.SSIM)
	}
	if rep.CompressionRatio != float64(4*len(data))/64 {
		t.Errorf("EvaluateGrid lost the base metrics: %+v", rep)
	}

	// Ranks without a 2-D slice degrade to NaN instead of failing.
	oneD, err := EvaluateGrid(data, data, grid.MustDims(len(data)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(oneD.SSIM) {
		t.Errorf("1-D SSIM = %v, want NaN", oneD.SSIM)
	}

	// The shape-blind Evaluate leaves SSIM NaN too.
	plain, err := Evaluate(data, data, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(plain.SSIM) {
		t.Errorf("Evaluate SSIM = %v, want NaN", plain.SSIM)
	}
}

func TestSliceSSIMSelectsMiddlePlane(t *testing.T) {
	shape := grid.MustDims(5, 12, 12)
	orig := make([]float32, shape.Len())
	rec := make([]float32, shape.Len())
	for i := range orig {
		orig[i] = float32(i % 13)
		rec[i] = orig[i]
	}
	// Corrupt a plane far from the middle: the mid-slice SSIM must stay 1.
	for i := 0; i < 12*12; i++ {
		rec[i] = -orig[i]
	}
	s, err := SliceSSIM(orig, rec, shape)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("mid-slice SSIM = %v, want 1 (corruption is in plane 0)", s)
	}
	if _, err := SliceSSIM(orig, rec, grid.MustDims(len(orig))); err == nil {
		t.Errorf("1-D SliceSSIM should fail")
	}
}

// TestEvaluateMatchesOnePassPerStatistic holds Evaluate's fused pass to the
// statistics taken one pass each, as refStats does, bit for bit up to NaN
// payloads: on noisy fields, on fields holding NaN, ±Inf and −0, and on one
// and two values.
func TestEvaluateMatchesOnePassPerStatistic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, n := range []int{1, 2, 999} {
		for _, rate := range []int{0, 20} {
			orig, recon := make([]float64, n), make([]float64, n)
			for i := range orig {
				orig[i] = 30*math.Sin(float64(i)/9) + rng.NormFloat64()
				recon[i] = orig[i] + rng.NormFloat64()/100
				if rng.Intn(100) < rate {
					recon[i] = specials[rng.Intn(len(specials))]
				}
				if rng.Intn(100) < rate {
					orig[i] = specials[rng.Intn(len(specials))]
				}
			}
			rep, err := Evaluate(orig, recon, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := refStats(orig, recon)
			got := [...]float64{rep.MSE, rep.RMSE, rep.MaxError, rep.ValueRange, rep.PSNR, rep.ErrorACF}
			for i := range got {
				// Which NaN a sum ends on is the compiler's choice of operand
				// order (a race build picks others), so NaNs match any NaN.
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Errorf("n=%d rate=%d: statistic %d is %v, one pass each gives %v", n, rate, i, got[i], want[i])
				}
			}
		}
	}
}

// refStats returns MSE, RMSE, MaxError, ValueRange, PSNR and ErrorACF, each
// statistic from a pass of its own.
func refStats(orig, recon []float64) [6]float64 {
	n := float64(len(orig))
	var sq, maxErr float64
	for i := range orig {
		d := orig[i] - recon[i]
		sq += float64(d * d)
		if a := math.Abs(d); a > maxErr {
			maxErr = a
		}
	}
	mse := sq / n
	vr := grid.ValueRange(orig)
	acf := 0.0
	if len(orig) >= 2 {
		var mean float64
		for i := range orig {
			mean += orig[i] - recon[i]
		}
		mean /= n
		var num, den float64
		for i := 0; i+1 < len(orig); i++ {
			d, next := orig[i]-recon[i]-mean, orig[i+1]-recon[i+1]-mean
			den += float64(d * d)
			num += float64(d * next)
		}
		d := orig[len(orig)-1] - recon[len(orig)-1] - mean
		if den += float64(d * d); den != 0 {
			acf = num / den
		}
	}
	return [6]float64{mse, math.Sqrt(mse), maxErr, vr, psnr(vr, math.Sqrt(mse)), acf}
}
