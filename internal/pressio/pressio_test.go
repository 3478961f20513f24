package pressio

import (
	"math"
	"math/rand"
	"testing"

	"fraz/internal/grid"
	"fraz/internal/metrics"
)

func testField3D() Buffer {
	shape := grid.MustDims(12, 14, 16)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(21))
	i := 0
	for z := 0; z < shape[0]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[2]; x++ {
				data[i] = float32(25*math.Sin(float64(x)/5)*math.Cos(float64(y)/6) +
					10*math.Sin(float64(z)/3) + 0.1*rng.NormFloat64())
				i++
			}
		}
	}
	buf, err := NewBufferOf(data, shape)
	if err != nil {
		panic(err)
	}
	return buf
}

func testField1D() Buffer {
	shape := grid.MustDims(5000)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 100))
	}
	buf, _ := NewBufferOf(data, shape)
	return buf
}

func TestNewBufferValidation(t *testing.T) {
	if _, err := NewBufferOf(make([]float32, 5), grid.MustDims(6)); err == nil {
		t.Errorf("length mismatch should fail")
	}
	if _, err := NewBufferOf[float32](nil, grid.Dims{}); err == nil {
		t.Errorf("empty shape should fail")
	}
	buf, err := NewBufferOf(make([]float32, 6), grid.MustDims(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Bytes() != 24 {
		t.Errorf("Bytes = %d, want 24", buf.Bytes())
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Errorf("unknown compressor should fail")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate registration should panic")
		}
	}()
	Register(&Codec{Name: "sz:abs"})
}

func TestAllErrorBoundedBackendsRespectBound(t *testing.T) {
	buf3 := testField3D()
	bound := 0.01
	for _, c := range Codecs() {
		name := c.Name
		if !c.Param.Unit.IsError() || !c.SupportsShape(buf3.Shape) {
			continue
		}
		res, err := Run(c, buf3, bound)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CompressionRatio <= 1 {
			t.Errorf("%s: expected some compression, got CR=%.2f", name, res.CompressionRatio)
		}
		switch name {
		case "mgard:l2":
			// mgard:l2 bounds the MSE rather than the max error.
			if res.MSE > bound {
				t.Errorf("%s: MSE %v exceeds bound %v", name, res.MSE, bound)
			}
		case "sz:rel":
			// sz:rel interprets the bound relative to the value range.
			if res.MaxError > bound*res.ValueRange {
				t.Errorf("%s: max error %v exceeds relative bound %v of range %v", name, res.MaxError, bound, res.ValueRange)
			}
		default:
			if res.MaxError > bound {
				t.Errorf("%s: max error %v exceeds bound %v", name, res.MaxError, bound)
			}
		}
	}
}

func TestZFPRateBackendSizeControl(t *testing.T) {
	buf := testField3D()
	c, err := New("zfp:rate")
	if err != nil {
		t.Fatal(err)
	}
	ratio4, _, err := Ratio(c, buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	ratio8, _, err := Ratio(c, buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 4 bits/value should give roughly twice the ratio of 8 bits/value.
	if !(ratio4 > ratio8*1.5) {
		t.Errorf("rate 4 ratio %.2f should be well above rate 8 ratio %.2f", ratio4, ratio8)
	}
}

func TestRatioMatchesRun(t *testing.T) {
	buf := testField1D()
	c, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	ratio, size, err := Ratio(c, buf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, buf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if size != res.CompressedBytes {
		t.Errorf("size mismatch: %d vs %d", size, res.CompressedBytes)
	}
	if math.Abs(ratio-res.CompressionRatio) > 1e-9 {
		t.Errorf("ratio mismatch: %v vs %v", ratio, res.CompressionRatio)
	}
}

func TestRunPropagatesCompressErrors(t *testing.T) {
	buf := testField1D()
	c, err := New("mgard:abs")
	if err != nil {
		t.Fatal(err)
	}
	// mgard does not support 1-D data; Run must surface the error.
	if _, err := Run(c, buf, 0.1); err == nil {
		t.Errorf("expected error for unsupported shape")
	}
}

func TestMonotoneTrendSZ(t *testing.T) {
	// Over widely separated bounds the ratio should broadly increase even
	// though it is locally non-monotonic.
	buf := testField3D()
	c, _ := New("sz:abs")
	rLow, _, err := Ratio(c, buf, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	rHigh, _, err := Ratio(c, buf, 1e-1)
	if err != nil {
		t.Fatal(err)
	}
	if !(rHigh > rLow) {
		t.Errorf("ratio at 1e-1 (%.2f) should exceed ratio at 1e-6 (%.2f)", rHigh, rLow)
	}
	_ = metrics.Report{}
}
