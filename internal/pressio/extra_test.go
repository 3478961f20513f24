package pressio

import (
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/metrics"
)

func TestSZRelativeBoundScalesWithRange(t *testing.T) {
	c, err := New("sz:rel")
	if err != nil {
		t.Fatal(err)
	}
	buf := testField3D()
	res, err := Run(c, buf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxError > 1e-3*res.Report.ValueRange {
		t.Errorf("relative bound violated: maxErr=%v range=%v", res.Report.MaxError, res.Report.ValueRange)
	}
	if res.Report.CompressionRatio <= 1.5 {
		t.Errorf("1e-3 relative bound should compress meaningfully, got %.2f", res.Report.CompressionRatio)
	}
	// Invalid relative bounds are rejected.
	if _, err := c.Compress(buf, 0); err == nil {
		t.Errorf("zero relative bound should fail")
	}
	if _, err := c.Compress(buf, 2); err == nil {
		t.Errorf("relative bound above 1 should fail")
	}
}

func TestSZRelativeConstantField(t *testing.T) {
	c, err := New("sz:rel")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 256)
	for i := range data {
		data[i] = 7.25
	}
	buf, err := NewBuffer(data, grid.MustDims(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, buf, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxError != 0 {
		t.Errorf("constant field should survive relative-bound compression unchanged, maxErr=%v", res.Report.MaxError)
	}
}

func TestZFPPrecisionBackend(t *testing.T) {
	c, err := New("zfp:precision")
	if err != nil {
		t.Fatal(err)
	}
	buf := testField3D()
	lowPrec, _, err := Ratio(c, buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	highPrec, _, err := Ratio(c, buf, 28)
	if err != nil {
		t.Fatal(err)
	}
	if !(lowPrec > highPrec) {
		t.Errorf("fewer bit planes should compress better: 8 planes %.2f vs 28 planes %.2f", lowPrec, highPrec)
	}
	resHigh, err := Run(c, buf, 28)
	if err != nil {
		t.Fatal(err)
	}
	resLow, err := Run(c, buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(resHigh.Report.PSNR > resLow.Report.PSNR) {
		t.Errorf("more planes should improve PSNR: %v vs %v", resHigh.Report.PSNR, resLow.Report.PSNR)
	}
}

func TestLosslessBaselineIsExactButWeak(t *testing.T) {
	c, err := New("flate:lossless")
	if err != nil {
		t.Fatal(err)
	}
	buf := testField3D()
	res, err := Run(c, buf, 0.5 /* ignored */)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxError != 0 {
		t.Errorf("lossless baseline must be exact, maxErr=%v", res.Report.MaxError)
	}
	// The paper's motivation: lossless compression of floating-point
	// simulation data yields very small ratios compared with what the
	// error-bounded compressors reach on the same field.
	if res.Report.CompressionRatio > 3 {
		t.Errorf("lossless ratio unexpectedly high (%.2f); the test field may be too smooth", res.Report.CompressionRatio)
	}
	szc, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	szRes, err := Run(szc, buf, 1e-3*res.Report.ValueRange)
	if err != nil {
		t.Fatal(err)
	}
	if !(szRes.Report.CompressionRatio > res.Report.CompressionRatio) {
		t.Errorf("error-bounded SZ (%.2f:1) should beat lossless DEFLATE (%.2f:1)",
			szRes.Report.CompressionRatio, res.Report.CompressionRatio)
	}
}

func TestLosslessDecompressErrors(t *testing.T) {
	c, err := New("flate:lossless")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress([]byte{1, 2, 3}, grid.MustDims(4), container.Float32); err == nil {
		t.Errorf("garbage input should fail")
	}
	buf := testField1D()
	comp, err := c.Compress(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(comp, grid.MustDims(3), container.Float32); err == nil {
		t.Errorf("shape mismatch should fail")
	}
	dec, err := c.Decompress(comp, buf.Shape, buf.DType())
	if err != nil {
		t.Fatal(err)
	}
	if metrics.MaxAbsError(buf.Float32(), dec.Float32()) != 0 {
		t.Errorf("lossless round trip should be exact")
	}
}
