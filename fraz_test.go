// These tests exercise the package exactly the way an external consumer
// would: through the public fraz API alone, with no reach into internal/
// packages. They double as the compatibility suite for the documented
// surface — round trips for both container versions, the typed error
// contract, and codec discovery.
package fraz_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fraz"
)

// testField synthesises a smooth 3-D field, the kind of spatially coherent
// data the compressors are built for.
func testField() ([]float32, []int) {
	shape := []int{16, 12, 10}
	data := make([]float32, shape[0]*shape[1]*shape[2])
	i := 0
	for z := 0; z < shape[0]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[2]; x++ {
				data[i] = float32(20*math.Sin(float64(z)/4)*math.Cos(float64(y)/5) + float64(x)/10)
				i++
			}
		}
	}
	return data, shape
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

func TestRoundTripMonolithic(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	res, err := c.Compress(context.Background(), &stream, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 1 {
		t.Errorf("Blocks(1) wrote %d blocks", res.Blocks)
	}
	if res.BytesWritten != int64(stream.Len()) {
		t.Errorf("BytesWritten = %d, stream holds %d", res.BytesWritten, stream.Len())
	}
	if res.Ratio <= 1 || res.ErrorBound <= 0 || res.Evaluations == 0 {
		t.Errorf("implausible result: %+v", res)
	}

	full, err := c.DecompressFull(context.Background(), &stream)
	if err != nil {
		t.Fatal(err)
	}
	if full.Version != 1 || full.Blocks != 1 || full.Codec != "sz:abs" {
		t.Errorf("container metadata: %+v", full)
	}
	if len(full.Shape) != len(shape) {
		t.Fatalf("shape rank %d, want %d", len(full.Shape), len(shape))
	}
	for i := range shape {
		if full.Shape[i] != shape[i] {
			t.Fatalf("shape = %v, want %v", full.Shape, shape)
		}
	}
	if diff := maxAbsDiff(data, full.Data); diff > res.ErrorBound {
		t.Errorf("pointwise error %g exceeds tuned bound %g", diff, res.ErrorBound)
	}
}

func TestRoundTripBlocked(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3), fraz.Blocks(4))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	res, err := c.Compress(context.Background(), &stream, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 4 {
		t.Fatalf("Blocks(4) wrote %d blocks", res.Blocks)
	}
	full, err := c.DecompressFull(context.Background(), &stream)
	if err != nil {
		t.Fatal(err)
	}
	if full.Version != 2 || full.Blocks != 4 {
		t.Errorf("blocked container metadata: version %d, %d blocks", full.Version, full.Blocks)
	}
	if diff := maxAbsDiff(data, full.Data); diff > res.ErrorBound {
		t.Errorf("pointwise error %g exceeds tuned bound %g", diff, res.ErrorBound)
	}
}

func TestOneShotHelpers(t *testing.T) {
	data, shape := testField()
	var stream bytes.Buffer
	res, err := fraz.Compress(context.Background(), &stream, data, shape,
		fraz.Codec("zfp:accuracy"), fraz.Ratio(8), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Codec != "zfp:accuracy" {
		t.Errorf("one-shot used codec %q", res.Codec)
	}
	out, outShape, err := fraz.Decompress(context.Background(), &stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) || len(outShape) != len(shape) {
		t.Fatalf("round trip returned %d values shape %v", len(out), outShape)
	}
	if diff := maxAbsDiff(data, out); diff > res.ErrorBound {
		t.Errorf("pointwise error %g exceeds tuned bound %g", diff, res.ErrorBound)
	}
}

// TestCompressInfeasible pins the typed-error contract: an unreachable
// target fails with errors.Is(err, fraz.ErrInfeasible), carries the closest
// observed configuration, and writes nothing.
func TestCompressInfeasible(t *testing.T) {
	data, shape := testField()
	var stream bytes.Buffer
	_, err := fraz.Compress(context.Background(), &stream, data, shape,
		fraz.Ratio(1e6), fraz.Tolerance(0.01), fraz.Regions(2), fraz.Seed(1))
	if !errors.Is(err, fraz.ErrInfeasible) {
		t.Fatalf("err = %v, want errors.Is ErrInfeasible", err)
	}
	var ie *fraz.InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *fraz.InfeasibleError in the chain", err)
	}
	if ie.ClosestRatio <= 0 || ie.TargetRatio != 1e6 {
		t.Errorf("closest configuration not reported: %+v", ie)
	}
	if stream.Len() != 0 {
		t.Errorf("infeasible Compress wrote %d bytes", stream.Len())
	}
}

// TestUnsupportedRequest pins the other typed refusal: a codec or objective
// that cannot serve the field's rank fails Compress and Tune with
// fraz.ErrUnsupported — not ErrInfeasible, since no other target helps, and
// not an untyped error a service would have to report as its own fault.
func TestUnsupportedRequest(t *testing.T) {
	data, _ := testField()
	line := []int{len(data)}
	for _, row := range []struct {
		codec  string
		target fraz.Option
	}{
		{"mgard:abs", fraz.Ratio(10)},          // mgard's rank window starts at 2
		{"sz:abs", fraz.TargetSSIM(0.9)},       // SSIM is measured on a 2-D slice
		{fraz.CodecAuto, fraz.TargetSSIM(0.9)}, // so the race has no candidate either
	} {
		c, err := fraz.New(row.codec, row.target)
		if err != nil {
			t.Fatalf("%s: %v", row.codec, err)
		}
		var stream bytes.Buffer
		_, err = c.Compress(context.Background(), &stream, data, line)
		if !errors.Is(err, fraz.ErrUnsupported) || errors.Is(err, fraz.ErrInfeasible) {
			t.Errorf("%s Compress on shape %v: err = %v, want ErrUnsupported", row.codec, line, err)
		}
		if stream.Len() != 0 {
			t.Errorf("%s: refused Compress wrote %d bytes", row.codec, stream.Len())
		}
		if _, err := c.Tune(context.Background(), data, line); !errors.Is(err, fraz.ErrUnsupported) {
			t.Errorf("%s Tune on shape %v: err = %v, want ErrUnsupported", row.codec, line, err)
		}
	}
}

func TestTuneReportsInfeasibleAsData(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(1e6), fraz.Tolerance(0.01), fraz.Regions(2), fraz.Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Tune(context.Background(), data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatalf("a 1e6:1 target should not be feasible: %+v", res)
	}
	if res.Ratio <= 0 {
		t.Errorf("infeasible Tune should report the closest ratio, got %v", res.Ratio)
	}
	if !errors.Is(res.Err(), fraz.ErrInfeasible) {
		t.Errorf("TuneResult.Err() = %v, want ErrInfeasible", res.Err())
	}
}

func TestNewUnknownCodec(t *testing.T) {
	if _, err := fraz.New("nope:mode", fraz.Ratio(10)); !errors.Is(err, fraz.ErrUnknownCodec) {
		t.Errorf("err = %v, want ErrUnknownCodec", err)
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, _, err := fraz.Decompress(context.Background(), strings.NewReader("not a container")); !errors.Is(err, fraz.ErrCorrupt) {
		t.Errorf("garbage stream: err = %v, want ErrCorrupt", err)
	}

	data, shape := testField()
	var stream bytes.Buffer
	if _, err := fraz.Compress(context.Background(), &stream, data, shape,
		fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3)); err != nil {
		t.Fatal(err)
	}
	enc := stream.Bytes()

	if _, _, err := fraz.Decompress(context.Background(), bytes.NewReader(enc[:len(enc)/2])); !errors.Is(err, fraz.ErrCorrupt) {
		t.Errorf("truncated stream: err = %v, want ErrCorrupt", err)
	}

	// The codec name is not covered by the payload CRC, so flipping a byte
	// inside it yields a structurally valid stream naming a codec that does
	// not exist: offset 9 is the first name byte (after magic, version,
	// dtype, rank, and the name length).
	bad := append([]byte(nil), enc...)
	bad[9] = 'q'
	if _, _, err := fraz.Decompress(context.Background(), bytes.NewReader(bad)); !errors.Is(err, fraz.ErrUnknownCodec) {
		t.Errorf("unknown header codec: err = %v, want ErrUnknownCodec", err)
	}
}

func TestCompressRequiresTarget(t *testing.T) {
	c, err := fraz.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	data, shape := testField()
	if _, err := c.Compress(context.Background(), &bytes.Buffer{}, data, shape); err == nil || !strings.Contains(err.Error(), "Ratio") {
		t.Errorf("Compress without Ratio: err = %v, want a hint at the Ratio option", err)
	}
	if _, err := c.Tune(context.Background(), data, shape); err == nil {
		t.Errorf("Tune without Ratio should fail")
	}
}

func TestFixedBoundSkipsTuning(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("zfp:rate", fraz.FixedBound(8), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	res, err := c.Compress(context.Background(), &stream, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != 8 || res.Evaluations != 0 {
		t.Errorf("FixedBound(8) result: %+v", res)
	}
	// 8 bits per 32-bit value ≈ 4:1 before stream overhead.
	if res.Ratio < 2 {
		t.Errorf("fixed-rate ratio = %v, want roughly 4:1", res.Ratio)
	}
	if out, _, err := fraz.Decompress(context.Background(), &stream); err != nil || len(out) != len(data) {
		t.Errorf("fixed-bound round trip: %d values, %v", len(out), err)
	}
}

// TestBoundReuse checks the client-level prediction carry: a second tune of
// the same data reuses the first call's feasible bound without retraining,
// unless ReuseBounds(false) opts out.
func TestBoundReuse(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Tune(context.Background(), data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Feasible || first.UsedPrediction {
		t.Fatalf("first tune: %+v", first)
	}
	second, err := c.Tune(context.Background(), data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !second.UsedPrediction || second.ErrorBound != first.ErrorBound {
		t.Errorf("second tune should reuse the bound %g: %+v", first.ErrorBound, second)
	}

	noReuse, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3), fraz.ReuseBounds(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noReuse.Tune(context.Background(), data, shape); err != nil {
		t.Fatal(err)
	}
	res, err := noReuse.Tune(context.Background(), data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPrediction {
		t.Errorf("ReuseBounds(false) still reused a prediction")
	}
}

func TestTuneSeriesAndFields(t *testing.T) {
	data, shape := testField()
	series := fraz.Series{
		Name:  "synthetic/field",
		Steps: 3,
		At: func(i int) ([]float32, []int, error) {
			return data, shape, nil // a perfectly static series: steps 1+ reuse the bound
		},
	}
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TuneSeries(context.Background(), series)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 || res.ConvergedSteps != 3 {
		t.Fatalf("series result: %+v", res)
	}
	if res.Retrains != 1 {
		t.Errorf("static series should retrain only on step 0, got %d retrains", res.Retrains)
	}

	fields, err := c.TuneFields(context.Background(), []fraz.Series{series, series})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].ConvergedSteps != 3 || fields[1].ConvergedSteps != 3 {
		t.Fatalf("fields result: %+v", fields)
	}
}

func TestShapeValidation(t *testing.T) {
	data, _ := testField()
	cases := [][]int{
		nil,             // no shape
		{},              // rank 0
		{1, 2, 3, 4, 5}, // rank 5
		{-16, 12, 10},   // negative extent
		{16, 12},        // product mismatch
	}
	for _, shape := range cases {
		if _, err := fraz.Compress(context.Background(), &bytes.Buffer{}, data, shape, fraz.Ratio(6)); err == nil {
			t.Errorf("shape %v should be rejected", shape)
		}
	}
	// Extents whose product wraps to zero "fit" an empty field; the shape is
	// what is wrong, and nothing may be written for it.
	var out bytes.Buffer
	_, err := fraz.Compress(context.Background(), &out, []float32{}, []int{1 << 32, 1 << 32}, fraz.Ratio(6))
	if err == nil || !strings.Contains(err.Error(), "fraz: invalid shape") || out.Len() != 0 {
		t.Errorf("wrapping shape: err = %v with %d bytes written, want an invalid-shape error and none", err, out.Len())
	}
}
