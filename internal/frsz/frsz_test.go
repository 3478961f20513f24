package frsz

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fraz/internal/grid"
)

// decoded is DecompressInto into a field of its own.
func decoded[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	dst := make([]T, shape.Len())
	return dst, DecompressInto(dst, buf, shape)
}

func sineField32(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i)/17) * math.Exp(math.Cos(float64(i)/101)))
	}
	return out
}

func sineField64(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(i)/17) * math.Exp(math.Cos(float64(i)/101))
	}
	return out
}

// maxAbsOfBlock returns the largest magnitude within each block of data.
func blockMaxAbs[T grid.Float](data []T, blockSize int) []float64 {
	nb := (len(data) + blockSize - 1) / blockSize
	out := make([]float64, nb)
	for bi := 0; bi < nb; bi++ {
		lo, hi := bi*blockSize, (bi+1)*blockSize
		if hi > len(data) {
			hi = len(data)
		}
		for _, v := range data[lo:hi] {
			if a := math.Abs(float64(v)); a > out[bi] {
				out[bi] = a
			}
		}
	}
	return out
}

// checkErrorBound asserts the documented per-block worst case: pointwise
// error at most 2^(e−N+1) where e is the block's frexp exponent.
func checkErrorBound[T grid.Float](t *testing.T, orig, recon []T, blockSize, bits int) {
	t.Helper()
	maxes := blockMaxAbs(orig, blockSize)
	for i := range orig {
		m := maxes[i/blockSize]
		if m == 0 {
			if recon[i] != 0 {
				t.Fatalf("element %d of an all-zero block decoded to %v", i, recon[i])
			}
			continue
		}
		_, e := math.Frexp(m)
		limit := math.Ldexp(1, e-bits+1)
		// Representation rounding adds up to one ulp of the element type on
		// top of the quantisation bound.
		limit += m * 2.4e-7 // 2 float32 ulps; negligible for float64
		if d := math.Abs(float64(orig[i]) - float64(recon[i])); d > limit {
			t.Fatalf("element %d: |%v - %v| = %g exceeds block bound %g (bits=%d)", i, orig[i], recon[i], d, limit, bits)
		}
	}
}

func TestRoundTripSizeAndErrorFloat32(t *testing.T) {
	shape := grid.MustDims(7, 31, 5)
	data := sineField32(shape.Len())
	for _, bits := range []int{1, 2, 5, 8, 13, 16, 27, 32} {
		opts := Options{BitsPerValue: bits}
		stream, err := Compress(data, shape, opts)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if want := CompressedSize(shape.Len(), shape.NDims(), bits, 0); len(stream) != want {
			t.Fatalf("bits=%d: stream is %d bytes, CompressedSize promises %d", bits, len(stream), want)
		}
		recon, err := decoded[float32](stream, shape)
		if err != nil {
			t.Fatalf("bits=%d: decompress: %v", bits, err)
		}
		if bits >= 2 {
			checkErrorBound(t, data, recon, DefaultBlockSize, bits)
		}
	}
}

func TestRoundTripSizeAndErrorFloat64(t *testing.T) {
	shape := grid.MustDims(2049)
	data := sineField64(shape.Len())
	for _, bits := range []int{1, 4, 11, 16, 32, 53, 64} {
		stream, err := Compress(data, shape, Options{BitsPerValue: bits})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if want := CompressedSize(shape.Len(), shape.NDims(), bits, 0); len(stream) != want {
			t.Fatalf("bits=%d: stream is %d bytes, CompressedSize promises %d", bits, len(stream), want)
		}
		recon, err := decoded[float64](stream, shape)
		if err != nil {
			t.Fatalf("bits=%d: decompress: %v", bits, err)
		}
		if bits >= 2 {
			checkErrorBound(t, data, recon, DefaultBlockSize, bits)
		}
	}
}

// TestRandomShapesProperty drives random shapes, block sizes, and rates
// through both dtypes: the stream size must equal the closed-form promise
// and the reconstruction must respect the per-block bound.
func TestRandomShapesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rank := 1 + rng.Intn(4)
		shape := make(grid.Dims, rank)
		for i := range shape {
			shape[i] = 1 + rng.Intn(13)
		}
		n := shape.Len()
		bs := 1 + rng.Intn(200)
		f64 := make([]float64, n)
		for i := range f64 {
			f64[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
		}
		bits := 1 + rng.Intn(32)
		opts := Options{BitsPerValue: bits, BlockSize: bs}

		stream, err := Compress(f64, shape, opts)
		if err != nil {
			t.Fatalf("trial %d (shape %v bs %d bits %d): %v", trial, shape, bs, bits, err)
		}
		if want := CompressedSize(n, rank, bits, bs); len(stream) != want {
			t.Fatalf("trial %d: %d bytes, want %d", trial, len(stream), want)
		}
		recon, err := decoded[float64](stream, shape)
		if err != nil {
			t.Fatalf("trial %d: decompress: %v", trial, err)
		}
		if bits >= 2 {
			checkErrorBound(t, f64, recon, bs, bits)
		}

		f32 := make([]float32, n)
		for i, v := range f64 {
			f32[i] = float32(v)
		}
		stream32, err := Compress(f32, shape, opts)
		if err != nil {
			t.Fatalf("trial %d float32: %v", trial, err)
		}
		recon32, err := decoded[float32](stream32, shape)
		if err != nil {
			t.Fatalf("trial %d float32: decompress: %v", trial, err)
		}
		if bits >= 2 {
			checkErrorBound(t, f32, recon32, bs, bits)
		}
	}
}

func TestAllZeroBlocks(t *testing.T) {
	shape := grid.MustDims(300)
	data := make([]float32, 300) // first two blocks zero, third mixed
	for i := 256; i < 300; i++ {
		data[i] = float32(i)
	}
	stream, err := Compress(data, shape, Options{BitsPerValue: 6})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := decoded[float32](stream, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if recon[i] != 0 {
			t.Fatalf("zero-block element %d decoded to %v", i, recon[i])
		}
	}
	// Negative zero must classify as a zero block, not produce an exponent.
	neg := []float32{float32(math.Copysign(0, -1)), 0, 0}
	stream, err = Compress(neg, grid.MustDims(3), Options{BitsPerValue: 4})
	if err != nil {
		t.Fatal(err)
	}
	recon, err = decoded[float32](stream, grid.MustDims(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if v != 0 {
			t.Fatalf("negative-zero block element %d decoded to %v", i, v)
		}
	}
}

func TestDenormals(t *testing.T) {
	// A block made entirely of float64 denormals: the scale factor 2^shift
	// overflows float64 at high N, exercising the per-value Ldexp paths.
	shape := grid.MustDims(64)
	data := make([]float64, 64)
	for i := range data {
		data[i] = math.Ldexp(float64(1+i%7), -1070)
	}
	for _, bits := range []int{8, 64} {
		stream, err := Compress(data, shape, Options{BitsPerValue: bits})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		recon, err := decoded[float64](stream, shape)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		checkErrorBound(t, data, recon, DefaultBlockSize, bits)
	}

	// float32 denormals likewise.
	f32 := make([]float32, 32)
	for i := range f32 {
		f32[i] = float32(math.Ldexp(float64(1+i), -140))
	}
	stream, err := Compress(f32, grid.MustDims(32), Options{BitsPerValue: 12})
	if err != nil {
		t.Fatal(err)
	}
	recon32, err := decoded[float32](stream, grid.MustDims(32))
	if err != nil {
		t.Fatal(err)
	}
	checkErrorBound(t, f32, recon32, DefaultBlockSize, 12)
}

func TestNonFiniteRejected(t *testing.T) {
	shape := grid.MustDims(4)
	cases32 := [][]float32{
		{1, 2, float32(math.NaN()), 4},
		{1, 2, float32(math.Inf(1)), 4},
		{1, 2, float32(math.Inf(-1)), 4},
	}
	for i, data := range cases32 {
		if _, err := Compress(data, shape, Options{BitsPerValue: 8}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("float32 case %d: err = %v, want ErrInvalidInput", i, err)
		}
	}
	cases64 := [][]float64{
		{1, 2, math.NaN(), 4},
		{1, 2, math.Inf(1), 4},
	}
	for i, data := range cases64 {
		if _, err := Compress(data, shape, Options{BitsPerValue: 8}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("float64 case %d: err = %v, want ErrInvalidInput", i, err)
		}
	}
}

func TestBadOptions(t *testing.T) {
	shape := grid.MustDims(8)
	data := sineField32(8)
	for _, bits := range []int{0, -1, 33} {
		if _, err := Compress(data, shape, Options{BitsPerValue: bits}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("bits=%d accepted, want ErrInvalidInput", bits)
		}
	}
	// float64 admits up to 64 bits.
	if _, err := Compress(sineField64(8), shape, Options{BitsPerValue: 64}); err != nil {
		t.Errorf("float64 at 64 bits rejected: %v", err)
	}
	if _, err := Compress(sineField64(8), shape, Options{BitsPerValue: 65}); !errors.Is(err, ErrInvalidInput) {
		t.Error("float64 at 65 bits accepted")
	}
	if _, err := Compress(data, shape, Options{BitsPerValue: 8, BlockSize: -2}); !errors.Is(err, ErrInvalidInput) {
		t.Error("negative block size accepted")
	}
	if _, err := Compress(data, grid.Dims{4}, Options{BitsPerValue: 8}); !errors.Is(err, ErrInvalidInput) {
		t.Error("mismatched data length accepted")
	}
}

// TestNearOverflowClamp pins the documented edge: data near the float32
// overflow threshold reconstructs to a finite clamp, never an Inf.
func TestNearOverflowClamp(t *testing.T) {
	shape := grid.MustDims(8)
	data := make([]float32, 8)
	for i := range data {
		data[i] = -math.MaxFloat32
	}
	stream, err := Compress(data, shape, Options{BitsPerValue: 32})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := decoded[float32](stream, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			t.Fatalf("element %d decoded non-finite %v", i, v)
		}
	}
}

// TestNearOverflowOneBit is the float64 end of the same edge, found by
// FuzzDecode: at one bit per value a block near MaxFloat64 has a quantum of
// 2^1024, which float64 cannot hold, and a zero code used to decode as
// 0·Inf = NaN. Zeros must come back as zeros and the rest finite.
func TestNearOverflowOneBit(t *testing.T) {
	shape := grid.MustDims(4)
	data := []float64{-math.MaxFloat64, 0, 1e300, 0}
	stream, err := Compress(data, shape, Options{BitsPerValue: 1})
	if err != nil {
		t.Fatal(err)
	}
	recon, err := decoded[float64](stream, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range recon {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("element %d decoded non-finite %v", i, v)
		}
	}
	if recon[1] != 0 || recon[3] != 0 {
		t.Errorf("zeros decoded as %v and %v", recon[1], recon[3])
	}
}

func TestCorruptStreams(t *testing.T) {
	shape := grid.MustDims(40)
	good, err := Compress(sineField32(40), shape, Options{BitsPerValue: 9})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, buf []byte) {
		t.Helper()
		if _, err := decoded[float32](buf, shape); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// A bad magic is the smoke row for the preamble, tested in full in
	// internal/grid; the rest are frsz's own fields and body.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	check("bad magic", bad)

	bad = append([]byte(nil), good...)
	bad[5] = 0
	check("zero bits per value", bad)
	bad[5] = 33
	check("float32 bits per value over 32", bad)

	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[6:], 0)
	check("zero block size", bad)

	check("truncated body", good[:len(good)-1])
	check("trailing bytes", append(append([]byte(nil), good...), 0))

	// Exponent outside the float32 window.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(bad[fixedHeaderLen+4:], uint16(2000))
	check("exponent out of window", bad)
}

func TestHeaderShape(t *testing.T) {
	shape := grid.MustDims(3, 5, 7, 2)
	stream, err := Compress(sineField64(shape.Len()), shape, Options{BitsPerValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := parseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !h.shape.Equal(shape) {
		t.Fatalf("header shape = %v, want %v", h.shape, shape)
	}
}

// TestFixedRateIsExact pins the codec's defining property: the stream size
// never depends on the data, only on shape and rate.
func TestFixedRateIsExact(t *testing.T) {
	shape := grid.MustDims(17, 23)
	n := shape.Len()
	fields := [][]float64{
		make([]float64, n),
		sineField64(n),
	}
	rng := rand.New(rand.NewSource(3))
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(60)-30)
	}
	fields = append(fields, noisy)
	for bits := 1; bits <= 64; bits++ {
		want := CompressedSize(n, 2, bits, 0)
		for fi, f := range fields {
			stream, err := Compress(f, shape, Options{BitsPerValue: bits})
			if err != nil {
				t.Fatalf("bits=%d field=%d: %v", bits, fi, err)
			}
			if len(stream) != want {
				t.Fatalf("bits=%d field=%d: %d bytes, want %d — the rate is not fixed", bits, fi, len(stream), want)
			}
		}
	}
}
