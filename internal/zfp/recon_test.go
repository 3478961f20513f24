package zfp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fraz/internal/grid"
)

// FuzzReconstruction requires CompressAndReconstruct's reconstruction to be
// DecompressInto's output for its stream, bit for bit, and the stream to be
// Compress's, byte for byte; a field either refuses, both refuse it with one
// error. Every run also requires a reconstruction of the wrong length, and
// one in fixed-rate mode, to be refused with ErrInvalidInput. The seed
// corpus (testdata/fuzz) and the seeds below reach ranks 1 to 3 with partial
// blocks at both widths, a tolerance that keeps every plane (kmin = 0) and
// one that keeps none (all-zero blocks), constant, all-zero and non-finite
// fields, and every precision of either width.
func FuzzReconstruction(f *testing.F) {
	for p := 1; p <= 64; p++ {
		f.Add(int64(p), uint8(2), uint8(6), uint8(4), uint8(2), uint8(1), uint8(p), int8(0), uint8(0), true)
		if p <= 32 {
			f.Add(int64(p), uint8(2), uint8(6), uint8(4), uint8(2), uint8(1), uint8(p), int8(0), uint8(0), false)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, rank, n0, n1, n2, mode, precision uint8, tolExp int8, kind uint8, wide bool) {
		nd := 1 + int(rank)%3
		limit := [3]int{256, 64, 33}[nd-1] // at most 33³ values
		shape := grid.MustDims([]int{1 + int(n0)%limit, 1 + int(n1)%limit, 1 + int(n2)%limit}[:nd]...)
		o := Options{Mode: ModeAccuracy, Tolerance: math.Ldexp(1, int(tolExp))}
		if mode%2 == 1 {
			o = Options{Mode: ModeFixedPrecision, Precision: 1 + int(precision)%32}
			if wide {
				o.Precision = 1 + int(precision)%64
			}
		}
		if wide {
			checkReconstruction(t, reconField[float64](shape.Len(), seed, kind), shape, o)
		} else {
			checkReconstruction(t, reconField[float32](shape.Len(), seed, kind), shape, o)
		}
	})
}

// reconField fills n values from seed. kind%5 picks the field: 0 a smooth
// trend with noise, 1 one repeated value, 2 all zeros, 3 the trend with one
// NaN or ±Inf, 4 values of random sign and magnitude across the width's
// whole exponent range, subnormals and signed zeros among them.
func reconField[T grid.Float](n int, seed int64, kind uint8) []T {
	rng := rand.New(rand.NewSource(seed))
	emin, emax := -150, 120
	if grid.ElemSize[T]() == 8 {
		emin, emax = -1080, 1020
	}
	out := make([]T, n)
	for i := range out {
		switch kind % 5 {
		case 1:
			out[i] = 7.25
		case 2:
		case 4:
			switch rng.Intn(16) {
			case 0:
				out[i] = T(math.Copysign(0, -1))
			case 1:
				out[i] = 0
			default:
				out[i] = T(math.Ldexp(rng.NormFloat64(), emin+rng.Intn(emax-emin)))
			}
		default:
			out[i] = T(40*math.Sin(float64(i)/7) + rng.NormFloat64()/8)
		}
	}
	if kind%5 == 3 {
		out[rng.Intn(n)] = T([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)])
	}
	return out
}

// checkReconstruction compresses data with and without a reconstruction,
// requires the same stream or the same error, then decodes the stream and
// requires the reconstruction's bits. It also requires a reconstruction of
// the wrong length, and any in fixed-rate mode, to be refused.
func checkReconstruction[T grid.Float](t *testing.T, data []T, shape grid.Dims, o Options) {
	t.Helper()
	name := fmt.Sprintf("%v %T %+v", shape, data, o)
	for _, bad := range []struct {
		recon []T
		o     Options
	}{
		{make([]T, len(data)+1), o},
		{make([]T, len(data)-1), o},
		{make([]T, len(data)), Options{Mode: ModeFixedRate, Rate: 8}},
	} {
		if _, err := CompressAndReconstruct(data, shape, bad.o, bad.recon); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("%s: %d-value reconstruction in %v mode: got %v, want ErrInvalidInput", name, len(bad.recon), bad.o.Mode, err)
		}
	}

	want, werr := Compress(data, shape, o)
	recon := make([]T, len(data))
	for i := range recon {
		recon[i] = -12345.5 // a value the encoder must overwrite
	}
	got, gerr := CompressAndReconstruct(data, shape, o, recon)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: Compress returns %v, CompressAndReconstruct %v", name, werr, gerr)
		}
		if !errors.Is(werr, ErrInvalidInput) {
			t.Fatalf("%s: %v does not wrap ErrInvalidInput", name, werr)
		}
		return
	}
	if string(got) != string(want) {
		t.Fatalf("%s: the stream differs from Compress's (%d and %d bytes)", name, len(got), len(want))
	}
	dec := make([]T, len(data))
	if err := DecompressInto(dec, got, shape); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDifference(recon, dec); i >= 0 {
		t.Fatalf("%s: value %d reconstructs to %v, decodes to %v", name, i, recon[i], dec[i])
	}
}

// firstBitDifference returns the first index at which a and b hold
// different bit patterns, or -1.
func firstBitDifference[T grid.Float](a, b []T) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// TestCompressAllocations pins Compress's allocations at what they were
// before it became CompressAndReconstruct with no reconstruction, and holds
// CompressAndReconstruct into a caller's buffer to the same count: the
// encoder's scratch for the reconstruction stays on the stack.
func TestCompressAllocations(t *testing.T) {
	f32, shape := smooth3D(24, 24, 24, 1)
	f64 := make([]float64, len(f32))
	for i, v := range f32 {
		f64[i] = float64(v)
	}
	for _, c := range []struct {
		wide   bool
		o      Options
		allocs float64
	}{
		{false, Options{Mode: ModeAccuracy, Tolerance: 1e-2}, 5},
		{true, Options{Mode: ModeAccuracy, Tolerance: 1e-6}, 8},
		{false, Options{Mode: ModeFixedPrecision, Precision: 20}, 5},
		{false, Options{Mode: ModeFixedRate, Rate: 8}, 4},
	} {
		var plain, recon float64
		if c.wide {
			plain, recon = allocs(f64, shape, c.o)
		} else {
			plain, recon = allocs(f32, shape, c.o)
		}
		if plain != c.allocs {
			t.Errorf("%+v, wide %v: Compress allocates %v times, want %v", c.o, c.wide, plain, c.allocs)
		}
		if c.o.Mode != ModeFixedRate && recon != plain {
			t.Errorf("%+v, wide %v: CompressAndReconstruct allocates %v times, Compress %v", c.o, c.wide, recon, plain)
		}
	}
}

// allocs counts the allocations of one Compress and of one
// CompressAndReconstruct into a buffer of the caller's.
func allocs[T grid.Float](data []T, shape grid.Dims, o Options) (plain, recon float64) {
	dst := make([]T, len(data))
	plain = testing.AllocsPerRun(10, func() { _, _ = Compress(data, shape, o) })
	recon = testing.AllocsPerRun(10, func() { _, _ = CompressAndReconstruct(data, shape, o, dst) })
	return plain, recon
}

// BenchmarkQualityEvaluation times what a quality evaluation of the 24³
// smooth3D field (a psnr-search field) costs the kernel, at tolerances of
// 1e-2 and 1e-3 of its value range: Compress then DecompressInto, against
// CompressAndReconstruct.
func BenchmarkQualityEvaluation(b *testing.B) {
	data, shape := smooth3D(24, 24, 24, 1)
	lo, hi := data[0], data[0]
	for _, v := range data {
		lo, hi = min(lo, v), max(hi, v)
	}
	dst := make([]float32, len(data))
	for _, share := range []float64{1e-2, 1e-3} {
		o := Options{Mode: ModeAccuracy, Tolerance: share * float64(hi-lo)}
		b.Run(fmt.Sprintf("decode/%g", share), func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				comp, err := Compress(data, shape, o)
				if err == nil {
					err = DecompressInto(dst, comp, shape)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reconstruct/%g", share), func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CompressAndReconstruct(data, shape, o, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
