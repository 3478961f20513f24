// Integration tests for the szx:abs speed-tier codec through the public
// fraz API: the max-error objective honoring its bound, and a rank-4 field.
package fraz_test

import (
	"bytes"
	"context"
	"math"
	"testing"

	"fraz"
)

func TestSZXFixedMaxError(t *testing.T) {
	data, shape := testField()
	// szx quantizes its error in kept-byte steps (~256x apart), so the
	// measured max error cannot land in the default ±10% band; widen the
	// acceptance band to [0.02·u, 1.98·u] and rely on the codec's bound
	// contract for the hard guarantee.
	const target = 5e-3
	obj := fraz.FixedMaxError(target).WithTolerance(0.98 * target)

	c, err := fraz.New("szx:abs", fraz.Target(obj))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := c.Compress(context.Background(), &buf, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codec != "szx:abs" {
		t.Errorf("sealed with %q, want szx:abs", res.Codec)
	}
	dec, decShape, err := c.Decompress(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decShape) != len(shape) {
		t.Fatalf("shape %v, want %v", decShape, shape)
	}
	got := maxAbsDiff(data, dec)
	// The hard guarantee: the measured pointwise error honors the bound the
	// field was sealed at.
	if got > res.ErrorBound {
		t.Errorf("max abs error %g exceeds sealed bound %g", got, res.ErrorBound)
	}
	// The objective's promise: the achieved error lies inside the band.
	if _, hi := obj.Band(); got > hi {
		t.Errorf("max abs error %g exceeds band ceiling %g", got, hi)
	}
}

func TestSZXRank4(t *testing.T) {
	shape := []int{3, 4, 5, 6}
	data := make([]float32, 3*4*5*6)
	for i := range data {
		data[i] = float32(math.Cos(float64(i) / 9))
	}
	const bound = 1e-3
	var buf bytes.Buffer
	_, err := fraz.Compress(context.Background(), &buf, data, shape,
		fraz.Codec("szx:abs"), fraz.FixedBound(bound), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	dec, decShape, err := fraz.Decompress(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decShape) != 4 {
		t.Fatalf("shape %v, want rank 4", decShape)
	}
	if got := maxAbsDiff(data, dec); got > bound {
		t.Errorf("max abs error %g exceeds bound %g", got, bound)
	}
}
