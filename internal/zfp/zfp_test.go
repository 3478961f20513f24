package zfp

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fraz/internal/bitstream"
	"fraz/internal/grid"
	"fraz/internal/metrics"
)

func smooth3D(nz, ny, nx int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(nz, ny, nx)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(seed))
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := 50*math.Sin(float64(x)/6)*math.Cos(float64(y)/8) + 20*math.Sin(float64(z)/4)
				v += 0.1 * rng.NormFloat64()
				data[i] = float32(v)
				i++
			}
		}
	}
	return data, shape
}

func smooth2D(ny, nx int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(ny, nx)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		y, x := i/nx, i%nx
		data[i] = float32(math.Exp(-float64((x-nx/2)*(x-nx/2)+(y-ny/2)*(y-ny/2))/500)*100 + 0.05*rng.NormFloat64())
	}
	return data, shape
}

func smooth1D(n int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(n)
	data := make([]float32, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		data[i] = float32(10*math.Sin(float64(i)/30) + 0.01*rng.NormFloat64())
	}
	return data, shape
}

func TestLiftTransformRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var vals [64]int32
		var orig [4]int32
		for i := range orig {
			vals[i] = int32(rng.Intn(1<<28) - 1<<27)
			orig[i] = vals[i]
		}
		fwdLift(&vals, 0, 1)
		invLift(&vals, 0, 1)
		for i := range orig {
			// The forward lift truncates low bits (>>1 steps), so the round
			// trip is only exact up to a few integer units; the codec's guard
			// bit planes absorb this.
			if diff := vals[i] - orig[i]; diff > 8 || diff < -8 {
				t.Fatalf("lift round trip error too large at %d: %d vs %d", i, vals[i], orig[i])
			}
		}
	}
}

func TestForwardInverseTransform3D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var vals, orig [64]int32
	for i := range vals {
		vals[i] = int32(rng.Intn(1<<26) - 1<<25)
		orig[i] = vals[i]
	}
	forwardTransform(&vals, 3)
	inverseTransform(&vals, 3)
	for i := range vals {
		diff := int64(vals[i]) - int64(orig[i])
		// Three lifting passes each truncate low bits; the compound error
		// stays within a few dozen integer units on 2^26-scale inputs.
		if diff > 64 || diff < -64 {
			t.Fatalf("3-D transform round trip error at %d: %d vs %d", i, vals[i], orig[i])
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	cases := []int32{0, 1, -1, 2, -2, 100, -100, math.MaxInt32, math.MinInt32 + 1, 1 << 30, -(1 << 30)}
	for _, v := range cases {
		if got := fromNegabinary[int32](toNegabinary(v)); got != v {
			t.Errorf("negabinary round trip %d -> %d", v, got)
		}
		if got := fromNegabinary[int64](toNegabinary(int64(v) << 32)); got != int64(v)<<32 {
			t.Errorf("64-bit negabinary round trip %d -> %d", int64(v)<<32, got)
		}
	}
	// Digits of −2: 2 = 110, −1 = 11, −2 = 10, at either width.
	for v, want := range map[int32]uint64{2: 0b110, -1: 0b11, -2: 0b10} {
		if got := toNegabinary(v); got != want {
			t.Errorf("toNegabinary(int32(%d)) = %b, want %b", v, got, want)
		}
		if got := toNegabinary(int64(v)); got != want {
			t.Errorf("toNegabinary(int64(%d)) = %b, want %b", v, got, want)
		}
	}
}

func TestPropertyNegabinary(t *testing.T) {
	f := func(v int32, w int64) bool {
		return fromNegabinary[int32](toNegabinary(v)) == v && fromNegabinary[int64](toNegabinary(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequencyPermutationIsPermutation(t *testing.T) {
	for nd := 1; nd <= 3; nd++ {
		p := sequencyPermutation(nd)
		size := 1 << (2 * nd)
		if len(p) != size {
			t.Fatalf("nd=%d: len=%d", nd, len(p))
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				t.Fatalf("nd=%d: invalid permutation %v", nd, p)
			}
			seen[v] = true
		}
		if p[0] != 0 {
			t.Errorf("nd=%d: DC coefficient should come first, got %d", nd, p[0])
		}
	}
}

func TestEncodeDecodeIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		size := []int{4, 16, 64}[trial%3]
		intprec := 32
		if trial >= 100 {
			intprec = 64
		}
		var data [64]uint64
		for i := range data[:size] {
			if intprec == 32 {
				data[i] = uint64(rng.Uint32() >> uint(rng.Intn(20)))
			} else {
				data[i] = rng.Uint64() >> uint(rng.Intn(40))
			}
		}
		w := bitstream.NewWriter(0)
		planes := data
		encodeInts(w, &planes, size, 0, math.MaxInt32, intprec)
		r := bitstream.NewReader(w.Bytes())
		var got [64]uint64
		if err := decodeInts(r, &got, size, 0, math.MaxInt32, intprec); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("trial %d: coefficient %d = %#x, want %#x", trial, i, got[i], data[i])
			}
		}
	}
}

// decoded is DecompressInto into a field of its own.
func decoded[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	dst := make([]T, shape.Len())
	return dst, DecompressInto(dst, buf, shape)
}

func accuracyRoundTrip(t *testing.T, data []float32, shape grid.Dims, tol float64) []float32 {
	t.Helper()
	comp, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: tol})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	maxErr := metrics.MaxAbsError(data, dec)
	if maxErr > tol {
		t.Fatalf("tolerance violated: maxErr=%v > tol=%v (shape %v)", maxErr, tol, shape)
	}
	return dec
}

func TestAccuracyRoundTrip3D(t *testing.T) {
	data, shape := smooth3D(17, 20, 23, 1)
	for _, tol := range []float64{10, 1, 1e-2, 1e-4} {
		accuracyRoundTrip(t, data, shape, tol)
	}
}

func TestAccuracyRoundTrip2D(t *testing.T) {
	data, shape := smooth2D(45, 61, 2)
	for _, tol := range []float64{1, 1e-3} {
		accuracyRoundTrip(t, data, shape, tol)
	}
}

func TestAccuracyRoundTrip1D(t *testing.T) {
	data, shape := smooth1D(3000, 3)
	for _, tol := range []float64{0.5, 1e-3} {
		accuracyRoundTrip(t, data, shape, tol)
	}
}

func TestAccuracyRandomData(t *testing.T) {
	shape := grid.MustDims(13, 9, 21)
	rng := rand.New(rand.NewSource(11))
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = rng.Float32()*2e4 - 1e4
	}
	for _, tol := range []float64{100, 1, 0.01} {
		accuracyRoundTrip(t, data, shape, tol)
	}
}

func TestAccuracyConstantAndZeroFields(t *testing.T) {
	shape := grid.MustDims(9, 9, 9)
	zero := make([]float32, shape.Len())
	accuracyRoundTrip(t, zero, shape, 1e-3)

	constant := make([]float32, shape.Len())
	for i := range constant {
		constant[i] = -273.15
	}
	accuracyRoundTrip(t, constant, shape, 1e-3)
}

func TestAccuracyTinyShapes(t *testing.T) {
	shapes := []grid.Dims{
		grid.MustDims(1),
		grid.MustDims(3),
		grid.MustDims(5),
		grid.MustDims(2, 3),
		grid.MustDims(5, 5, 2),
	}
	rng := rand.New(rand.NewSource(13))
	for _, shape := range shapes {
		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = rng.Float32() * 7
		}
		accuracyRoundTrip(t, data, shape, 1e-2)
	}
}

func TestAccuracyCompressionImprovesWithLooserTolerance(t *testing.T) {
	data, shape := smooth3D(32, 32, 32, 5)
	tight, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) >= len(tight) {
		t.Errorf("looser tolerance should compress better: %d vs %d", len(loose), len(tight))
	}
}

func TestAccuracyRatioIsStepLike(t *testing.T) {
	// Many nearby tolerances should map onto a small set of distinct
	// compressed sizes because of the floored min-exponent computation;
	// this is the behaviour FRaZ has to work around (paper §VI-B3).
	data, shape := smooth3D(16, 16, 16, 7)
	sizes := map[int]bool{}
	count := 0
	for tol := 1e-3; tol < 1e-1; tol *= 1.15 {
		comp, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: tol})
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(comp)] = true
		count++
	}
	if len(sizes) >= count {
		t.Errorf("expected step-like behaviour: %d distinct sizes from %d tolerances", len(sizes), count)
	}
}

func TestFixedRateSizeIsExact(t *testing.T) {
	data, shape := smooth3D(20, 24, 28, 9)
	for _, rate := range []float64{2, 4, 8, 16} {
		comp, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		want := CompressedSizeFixedRate(shape, rate)
		if len(comp) != want {
			t.Errorf("rate %v: size %d, want %d", rate, len(comp), want)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		if len(dec) != len(data) {
			t.Fatalf("rate %v: decoded length %d", rate, len(dec))
		}
	}
}

func TestFixedRateQualityImprovesWithRate(t *testing.T) {
	data, shape := smooth3D(24, 24, 24, 10)
	var prevPSNR float64 = -math.MaxFloat64
	for _, rate := range []float64{2, 4, 8, 16} {
		comp, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: rate})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatal(err)
		}
		psnr := metrics.PSNR(data, dec)
		if psnr < prevPSNR {
			t.Errorf("PSNR should not decrease with rate: %v dB at rate %v (prev %v)", psnr, rate, prevPSNR)
		}
		prevPSNR = psnr
	}
}

func TestFixedRateWorseThanAccuracyAtSameSize(t *testing.T) {
	// The core observation behind the paper's Fig. 1: at (approximately) the
	// same compressed size, accuracy mode driven to that size gives higher
	// PSNR than fixed-rate mode.
	data, shape := smooth3D(32, 32, 32, 11)
	accComp, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	accDec, err := decoded[float32](accComp, shape)
	if err != nil {
		t.Fatal(err)
	}
	accBitRate := float64(len(accComp)*8) / float64(len(data))

	frComp, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: math.Max(1, math.Floor(accBitRate))})
	if err != nil {
		t.Fatal(err)
	}
	frDec, err := decoded[float32](frComp, shape)
	if err != nil {
		t.Fatal(err)
	}
	accPSNR := metrics.PSNR(data, accDec)
	frPSNR := metrics.PSNR(data, frDec)
	if accPSNR <= frPSNR {
		t.Errorf("accuracy mode should beat fixed-rate at similar size: acc=%.1f dB (%.2f bpv) vs fr=%.1f dB",
			accPSNR, accBitRate, frPSNR)
	}
}

func TestInvalidOptions(t *testing.T) {
	data := make([]float32, 16)
	shape := grid.MustDims(16)
	if _, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: 0}); err == nil {
		t.Errorf("zero tolerance should fail")
	}
	if _, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: math.NaN()}); err == nil {
		t.Errorf("NaN tolerance should fail")
	}
	if _, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: 0}); err == nil {
		t.Errorf("zero rate should fail")
	}
	if _, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: 100}); err == nil {
		t.Errorf("rate > 64 should fail")
	}
	if _, err := Compress(data, shape, Options{Mode: Mode(9), Tolerance: 1}); err == nil {
		t.Errorf("unknown mode should fail")
	}
	if _, err := Compress(data, grid.MustDims(4), Options{Mode: ModeAccuracy, Tolerance: 1}); err == nil {
		t.Errorf("shape/length mismatch should fail")
	}
	if _, err := Compress(make([]float32, 16), grid.MustDims(2, 2, 2, 2), Options{Mode: ModeAccuracy, Tolerance: 1}); err == nil {
		t.Errorf("4-D should fail")
	}
}

// TestDecompressCorrupt: a bad magic is the smoke row for the preamble,
// tested in full in internal/grid; the rest are zfp's own fields.
func TestDecompressCorrupt(t *testing.T) {
	data, shape := smooth1D(100, 5)
	comp, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), comp...)
	bad[0] ^= 0xFF
	if _, err := decoded[float32](bad, shape); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCorrupt", err)
	}
	if _, err := decoded[float32](comp[:20], shape); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated stream: got %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), comp...)
	bad[4] = 7
	if _, err := decoded[float32](bad, shape); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown mode: got %v, want ErrCorrupt", err)
	}
	// A parameter Compress refuses is a corrupt header: a tolerance of +Inf
	// (whose Log2 has no integer floor) and a NaN rate.
	bad = append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(bad[6:], math.Float64bits(math.Inf(1)))
	if _, err := decoded[float32](bad, shape); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tolerance +Inf: got %v, want ErrCorrupt", err)
	}
	rate, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: 8})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(rate[6:], math.Float64bits(math.NaN()))
	if _, err := decoded[float32](rate, shape); !errors.Is(err, ErrCorrupt) {
		t.Errorf("rate NaN: got %v, want ErrCorrupt", err)
	}
	// More blocks than the body has bits, at a count the preamble's cap
	// still admits: each block costs at least one bit.
	forged := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint32(forged[fixedHeaderLen:], 1<<14)
	if _, _, err := parseHeader(forged); !errors.Is(err, ErrCorrupt) {
		t.Errorf("forged extent: got %v, want ErrCorrupt", err)
	}
}

// TestCompressRefusesNonFinite: a block shares one exponent, and a NaN or an
// infinity has none to give, so its finite neighbours would be quantised
// against a wrong one. (An 8³ field at tolerance 1e-2 with +Inf at index 5
// and NaN at 200 once reconstructed 59.64 at index 199 as 1, with no error.)
// Every mode refuses such input at both widths, wherever the value sits.
func TestCompressRefusesNonFinite(t *testing.T) {
	cube, cubeShape := smooth3D(8, 8, 8, 1)
	line, lineShape := smooth1D(13, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, o := range []Options{
			{Mode: ModeAccuracy, Tolerance: 1e-2},
			{Mode: ModeFixedRate, Rate: 8},
			{Mode: ModeFixedPrecision, Precision: 16},
		} {
			for _, c := range []struct {
				data  []float32
				shape grid.Dims
				at    int
			}{{cube, cubeShape, 5}, {cube, cubeShape, 200}, {line, lineShape, 12}} {
				f32 := append([]float32(nil), c.data...)
				f32[c.at] = float32(bad)
				if _, err := Compress(f32, c.shape, o); !errors.Is(err, ErrInvalidInput) {
					t.Errorf("%v at %d of %v, %v, float32: got %v, want ErrInvalidInput", bad, c.at, c.shape, o.Mode, err)
				}
				f64 := make([]float64, len(c.data))
				for i, v := range c.data {
					f64[i] = float64(v)
				}
				f64[c.at] = bad
				if _, err := Compress(f64, c.shape, o); !errors.Is(err, ErrInvalidInput) {
					t.Errorf("%v at %d of %v, %v, float64: got %v, want ErrInvalidInput", bad, c.at, c.shape, o.Mode, err)
				}
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeAccuracy.String() != "accuracy" || ModeFixedRate.String() != "fixed-rate" {
		t.Errorf("unexpected mode strings")
	}
	if Mode(7).String() == "" {
		t.Errorf("unknown mode string should not be empty")
	}
}

func TestPropertyAccuracyBoundHolds(t *testing.T) {
	f := func(seed int64, tolExp uint8, amp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := grid.MustDims(6, 9, 7)
		scale := float64(amp%100) + 1
		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = float32(scale * (math.Sin(float64(i)/11) + 0.3*rng.NormFloat64()))
		}
		tol := math.Pow(10, -float64(tolExp%5)) * scale / 100
		comp, err := Compress(data, shape, Options{Mode: ModeAccuracy, Tolerance: tol})
		if err != nil {
			return false
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			return false
		}
		return metrics.MaxAbsError(data, dec) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// benchAccuracy times Compress, or DecompressInto a field of its own, of the
// n³ smooth3D field at element type T and tolerance 1e-2. 64³ is the size
// the package has always been measured at; 24³ is a psnr-search field.
func benchAccuracy[T grid.Float](b *testing.B, n int, decompress bool) {
	f32, shape := smooth3D(n, n, n, 1)
	data := make([]T, len(f32))
	for i, v := range f32 {
		data[i] = T(v)
	}
	opts := Options{Mode: ModeAccuracy, Tolerance: 1e-2}
	comp, err := Compress(data, shape, opts)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]T, len(data))
	b.SetBytes(int64(len(data) * grid.ElemSize[T]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decompress {
			err = DecompressInto(dst, comp, shape)
		} else {
			_, err = Compress(data, shape, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressAccuracy3D(b *testing.B)          { benchAccuracy[float32](b, 64, false) }
func BenchmarkDecompressAccuracy3D(b *testing.B)        { benchAccuracy[float32](b, 64, true) }
func BenchmarkCompressAccuracy3DFloat64(b *testing.B)   { benchAccuracy[float64](b, 64, false) }
func BenchmarkDecompressAccuracy3DFloat64(b *testing.B) { benchAccuracy[float64](b, 64, true) }
func BenchmarkCompressAccuracy24(b *testing.B)          { benchAccuracy[float32](b, 24, false) }
func BenchmarkDecompressAccuracy24(b *testing.B)        { benchAccuracy[float32](b, 24, true) }

func BenchmarkCompressFixedRate3D(b *testing.B) {
	data, shape := smooth3D(64, 64, 64, 1)
	b.SetBytes(int64(len(data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, shape, Options{Mode: ModeFixedRate, Rate: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
