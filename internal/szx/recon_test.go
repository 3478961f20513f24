package szx

import (
	"math"
	"math/rand"
	"testing"

	"fraz/internal/grid"
)

// FuzzReconstruction requires CompressAndReconstruct's reconstruction to be
// DecompressInto's output for its stream, bit for bit, and the stream to be
// Compress's, byte for byte. The seed corpus (testdata/fuzz) and the seeds
// below reach what the kernel special-cases: all-constant blocks,
// non-finite blocks stored at full width, a bound tight enough to keep
// every byte, a block larger than the field, and block sizes 1 to 16.
func FuzzReconstruction(f *testing.F) {
	for bs := uint8(1); bs <= 16; bs++ {
		f.Add(int64(bs), uint16(70), bs, uint8(8), uint8(bs%3), bs%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, blockSize, boundExp, kind uint8, wide bool) {
		size := 1 + int(n)%2000
		o := Options{ErrorBound: math.Ldexp(1, 6-int(boundExp)), BlockSize: int(blockSize % 17)}
		if wide {
			checkReconstruction(t, reconField[float64](size, seed, kind), o)
		} else {
			checkReconstruction(t, reconField[float32](size, seed, kind), o)
		}
	})
}

// reconField fills n values from seed. kind%3 picks the field: 0 a smooth
// trend with noise, 1 one repeated value (every block constant), 2 the
// trend with about one value in eight replaced by NaN (one with a payload),
// ±Inf, −0 or a subnormal.
func reconField[T grid.Float](n int, seed int64, kind uint8) []T {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{math.NaN(), math.Float64frombits(0x7FF4_0000_0000_0ABC), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 5e-324, math.SmallestNonzeroFloat32}
	out := make([]T, n)
	for i := range out {
		switch {
		case kind%3 == 1:
			out[i] = 7.25
		case kind%3 == 2 && rng.Intn(8) == 0:
			out[i] = T(specials[rng.Intn(len(specials))])
		default:
			out[i] = T(40*math.Sin(float64(i)/7) + rng.NormFloat64()/8)
		}
	}
	return out
}

// checkReconstruction compresses data with and without a reconstruction,
// requires the same stream, then decodes it and requires the
// reconstruction's bits.
func checkReconstruction[T grid.Float](t *testing.T, data []T, o Options) {
	t.Helper()
	shape := grid.MustDims(len(data))
	want, err := Compress(data, shape, o)
	if err != nil {
		t.Fatal(err)
	}
	recon := make([]T, len(data))
	for i := range recon {
		recon[i] = -12345.5 // a value the encoder must overwrite
	}
	got, err := CompressAndReconstruct(data, shape, o, recon)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%d values %+v: the stream differs from Compress's", len(data), o)
	}
	dec := make([]T, len(data))
	if err := DecompressInto(dec, got, shape); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDifference(recon, dec); i >= 0 {
		t.Fatalf("%d values %+v: value %d reconstructs to %v, decodes to %v", len(data), o, i, recon[i], dec[i])
	}
}

// firstBitDifference returns the first index at which a and b hold
// different bit patterns, or -1.
func firstBitDifference[T grid.Float](a, b []T) int {
	if a32, ok := any(a).([]float32); ok {
		b32 := any(b).([]float32)
		for i := range a32 {
			if math.Float32bits(a32[i]) != math.Float32bits(b32[i]) {
				return i
			}
		}
		return -1
	}
	a64, b64 := any(a).([]float64), any(b).([]float64)
	for i := range a64 {
		if math.Float64bits(a64[i]) != math.Float64bits(b64[i]) {
			return i
		}
	}
	return -1
}
