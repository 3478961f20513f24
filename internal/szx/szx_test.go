package szx

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fraz/internal/grid"
)

// maxAbsErr32 returns the largest pointwise deviation, treating NaN→NaN as
// zero error and anything-else→NaN (or a changed infinity) as infinite.
func maxAbsErr32(a, b []float32) float64 {
	worst := 0.0
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		switch {
		case math.IsNaN(x) && math.IsNaN(y):
		case math.IsNaN(x) || math.IsNaN(y):
			return math.Inf(1)
		case math.IsInf(x, 0) || math.IsInf(y, 0):
			if x != y {
				return math.Inf(1)
			}
		default:
			if d := math.Abs(x - y); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func maxAbsErr64(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		x, y := a[i], b[i]
		switch {
		case math.IsNaN(x) && math.IsNaN(y):
		case math.IsNaN(x) || math.IsNaN(y):
			return math.Inf(1)
		case math.IsInf(x, 0) || math.IsInf(y, 0):
			if x != y {
				return math.Inf(1)
			}
		default:
			if d := math.Abs(x - y); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// decoded is DecompressInto into a field of its own.
func decoded[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	dst := make([]T, shape.Len())
	return dst, DecompressInto(dst, buf, shape)
}

func synth32(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	for i := range data {
		t := float64(i) / float64(n)
		data[i] = float32(100*math.Sin(12*t) + 5*rng.NormFloat64())
	}
	return data
}

func synth64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		t := float64(i) / float64(n)
		data[i] = 100*math.Sin(12*t) + 5*rng.NormFloat64()
	}
	return data
}

func TestRoundTripFloat32(t *testing.T) {
	for _, bound := range []float64{1e-1, 1e-3, 1e-6} {
		data := synth32(10000, 1)
		shape := grid.MustDims(100, 100)
		comp, err := Compress(data, shape, Options{ErrorBound: bound})
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		if got := maxAbsErr32(data, dec); got > bound {
			t.Errorf("bound %g: max abs error %g exceeds bound", bound, got)
		}
	}
}

func TestRoundTripFloat64(t *testing.T) {
	for _, bound := range []float64{1e-1, 1e-3, 1e-9} {
		data := synth64(10000, 2)
		shape := grid.MustDims(10, 10, 100)
		comp, err := Compress(data, shape, Options{ErrorBound: bound})
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		dec, err := decoded[float64](comp, shape)
		if err != nil {
			t.Fatalf("bound %g: %v", bound, err)
		}
		if got := maxAbsErr64(data, dec); got > bound {
			t.Errorf("bound %g: max abs error %g exceeds bound", bound, got)
		}
	}
}

func TestAllConstantField(t *testing.T) {
	data := make([]float32, 4096)
	for i := range data {
		data[i] = 42.5
	}
	shape := grid.MustDims(4096)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// 32 blocks collapse to one literal each: header + bitmap + 32×4 bytes.
	if len(comp) > fixedHeaderLen+4+4+32*4+16 {
		t.Errorf("all-constant field compressed to %d bytes, want near-header size", len(comp))
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 42.5 {
			t.Fatalf("dec[%d] = %v, want 42.5", i, v)
		}
	}
}

func TestNaNInfPreserved(t *testing.T) {
	data := make([]float32, 1000)
	for i := range data {
		switch i % 4 {
		case 0:
			data[i] = float32(math.NaN())
		case 1:
			data[i] = float32(math.Inf(1))
		case 2:
			data[i] = float32(math.Inf(-1))
		default:
			data[i] = float32(i)
		}
	}
	shape := grid.MustDims(1000)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatal(err)
	}
	// Non-finite blocks are stored losslessly, so the round trip must be
	// bit-exact for every value.
	for i := range data {
		if math.Float32bits(data[i]) != math.Float32bits(dec[i]) {
			t.Fatalf("dec[%d] = %x, want bit-exact %x", i, math.Float32bits(dec[i]), math.Float32bits(data[i]))
		}
	}
}

func TestAllNaN64(t *testing.T) {
	data := make([]float64, 300)
	for i := range data {
		data[i] = math.NaN()
	}
	shape := grid.MustDims(300)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decoded[float64](comp, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dec {
		if !math.IsNaN(dec[i]) {
			t.Fatalf("dec[%d] = %v, want NaN", i, dec[i])
		}
	}
}

func TestBlockLargerThanField(t *testing.T) {
	data := synth32(17, 3)
	shape := grid.MustDims(17)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3, BlockSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsErr32(data, dec); got > 1e-3 {
		t.Errorf("max abs error %g exceeds bound", got)
	}
}

func TestBoundRejection(t *testing.T) {
	data := synth32(16, 4)
	shape := grid.MustDims(16)
	for _, bound := range []float64{0, -1, math.Inf(1), math.NaN()} {
		_, err := Compress(data, shape, Options{ErrorBound: bound})
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("bound %v: got %v, want ErrInvalidInput", bound, err)
		}
	}
}

func TestInputValidation(t *testing.T) {
	data := synth32(16, 5)
	if _, err := Compress(data, grid.Dims{4, 3}, Options{ErrorBound: 1e-3}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("shape/data mismatch: got %v, want ErrInvalidInput", err)
	}
	if _, err := Compress(data, grid.Dims{}, Options{ErrorBound: 1e-3}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("empty shape: got %v, want ErrInvalidInput", err)
	}
	if _, err := Compress(data, grid.MustDims(16), Options{ErrorBound: 1e-3, BlockSize: -1}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative block size: got %v, want ErrInvalidInput", err)
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	data := synth32(256, 6)
	shape := grid.MustDims(256)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// A bad magic is the smoke row for the preamble, tested in full in
	// internal/grid; the rest are szx's own fields and body.
	cases := map[string][]byte{
		"bad magic":       append([]byte{0, 1, 2, 3}, comp[4:]...),
		"zero bound":      append(append(append([]byte{}, comp[:5]...), make([]byte, 8)...), comp[13:]...),
		"zero block size": append(append(append([]byte{}, comp[:13]...), 0, 0, 0, 0), comp[17:]...),
		"truncated body":  comp[:len(comp)-7],
		"one byte short":  comp[:len(comp)-1],
		"trailing bytes":  append(append([]byte{}, comp...), 0xee),
	}
	for name, buf := range cases {
		if _, err := decoded[float32](buf, shape); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	comp64, err := Compress(synth64(256, 6), shape, Options{ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decoded[float64](comp64[:len(comp64)-1], shape); !errors.Is(err, ErrCorrupt) {
		t.Errorf("float64, one plane byte short: got %v, want ErrCorrupt", err)
	}
}

func TestHeaderShape(t *testing.T) {
	data := synth64(60, 7)
	shape := grid.MustDims(3, 4, 5)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := parseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !h.shape.Equal(shape) {
		t.Errorf("header shape = %v, want %v", h.shape, shape)
	}
}

func TestSmallBlockSizes(t *testing.T) {
	data := synth64(1000, 8)
	shape := grid.MustDims(1000)
	for _, bs := range []int{1, 2, 3, 7, 128, 999, 1000, 1001} {
		comp, err := Compress(data, shape, Options{ErrorBound: 1e-4, BlockSize: bs})
		if err != nil {
			t.Fatalf("bs %d: %v", bs, err)
		}
		dec, err := decoded[float64](comp, shape)
		if err != nil {
			t.Fatalf("bs %d: %v", bs, err)
		}
		if got := maxAbsErr64(data, dec); got > 1e-4 {
			t.Errorf("bs %d: max abs error %g exceeds bound", bs, got)
		}
	}
}

func TestTinyBoundGoesLossless(t *testing.T) {
	data := synth32(512, 9)
	shape := grid.MustDims(512)
	// A bound far below float32 resolution forces full-width blocks; the
	// round trip must then be bit-exact.
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-30})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Float32bits(data[i]) != math.Float32bits(dec[i]) {
			t.Fatalf("dec[%d] not bit-exact under tiny bound", i)
		}
	}
}
