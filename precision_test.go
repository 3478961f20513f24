package fraz_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"fraz"
)

// testField64 is testField computed in double precision: same smooth 3-D
// structure, full float64 resolution.
func testField64() ([]float64, []int) {
	shape := []int{16, 12, 10}
	data := make([]float64, shape[0]*shape[1]*shape[2])
	i := 0
	for z := 0; z < shape[0]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[2]; x++ {
				data[i] = 20*math.Sin(float64(z)/4)*math.Cos(float64(y)/5) + float64(x)/10
				i++
			}
		}
	}
	return data, shape
}

// TestPrecisionWidthMismatch pins the typed-width contract: a float32
// archive refuses the float64 accessors and vice versa, with errors that
// name the right alternative.
func TestPrecisionWidthMismatch(t *testing.T) {
	data64, shape := testField64()
	var s64 bytes.Buffer
	if _, err := fraz.Compress(context.Background(), &s64, data64, shape,
		fraz.Ratio(10), fraz.Tolerance(0.3), fraz.Regions(4), fraz.Seed(3)); err != nil {
		t.Fatal(err)
	}
	archive := s64.Bytes()

	if _, _, err := fraz.Decompress(context.Background(), bytes.NewReader(archive)); err == nil ||
		!strings.Contains(err.Error(), "float64") {
		t.Errorf("Decompress on a float64 archive: err = %v, want a float64-width error", err)
	}
	if _, _, err := fraz.DecompressAs[float32](context.Background(), bytes.NewReader(archive)); err == nil {
		t.Errorf("DecompressAs[float32] on a float64 archive should fail")
	}
	got, _, err := fraz.DecompressAs[float64](context.Background(), bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data64) {
		t.Fatalf("reconstructed %d values, want %d", len(got), len(data64))
	}

	// And the other direction: a float32 archive refuses Decompress64.
	data32 := make([]float32, len(data64))
	for i, v := range data64 {
		data32[i] = float32(v)
	}
	var s32 bytes.Buffer
	if _, err := fraz.Compress(context.Background(), &s32, data32, shape,
		fraz.Ratio(10), fraz.Tolerance(0.3), fraz.Regions(4), fraz.Seed(3)); err != nil {
		t.Fatal(err)
	}
	c, err := fraz.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Decompress64(context.Background(), bytes.NewReader(s32.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "float32") {
		t.Errorf("Decompress64 on a float32 archive: err = %v, want a float32-width error", err)
	}
}
