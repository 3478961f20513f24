package mgard

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"fraz/internal/codestream/codestreamtest"
	"fraz/internal/grid"
	"fraz/internal/metrics"
)

func field3D(nz, ny, nx int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(nz, ny, nx)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(seed))
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := 30*math.Sin(float64(x)/9)*math.Cos(float64(y)/7) + 10*math.Cos(float64(z)/3)
				v += 0.05 * rng.NormFloat64()
				data[i] = float32(v)
				i++
			}
		}
	}
	return data, shape
}

func field2D(ny, nx int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(ny, nx)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		y, x := i/nx, i%nx
		data[i] = float32(100*math.Sin(float64(x)/15)*math.Sin(float64(y)/11) + 0.1*rng.NormFloat64())
	}
	return data, shape
}

// decoded is DecompressInto into a field of its own.
func decoded[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	dst := make([]T, shape.Len())
	return dst, DecompressInto(dst, buf, shape)
}

func infRoundTrip(t *testing.T, data []float32, shape grid.Dims, bound float64) []float32 {
	t.Helper()
	comp, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: bound})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if maxErr := metrics.MaxAbsError(data, dec); maxErr > bound {
		t.Fatalf("infinity norm violated: maxErr=%v > bound=%v (shape %v)", maxErr, bound, shape)
	}
	return dec
}

func TestForwardInverseDecomposeIsExact(t *testing.T) {
	data, shape := field2D(33, 47, 1)
	work := make([]float64, len(data))
	for i, v := range data {
		work[i] = float64(v)
	}
	levels := numLevels(shape)
	forwardDecompose(work, shape, levels)
	inverseReconstruct(work, shape, levels)
	for i := range data {
		if math.Abs(work[i]-float64(data[i])) > 1e-9 {
			t.Fatalf("transform round trip not exact at %d: %v vs %v", i, work[i], data[i])
		}
	}
}

func TestForwardDecomposeShrinksDetailCoefficients(t *testing.T) {
	// On smooth data the detail coefficients should be much smaller than
	// the data values, which is what makes the multilevel transform useful.
	data, shape := field2D(65, 65, 2)
	work := make([]float64, len(data))
	var origEnergy float64
	for i, v := range data {
		work[i] = float64(v)
		origEnergy += math.Abs(float64(v))
	}
	forwardDecompose(work, shape, numLevels(shape))
	var coeffEnergy float64
	for _, c := range work {
		coeffEnergy += math.Abs(c)
	}
	if coeffEnergy > origEnergy/2 {
		t.Errorf("decomposition should concentrate energy: coeff L1=%v orig L1=%v", coeffEnergy, origEnergy)
	}
}

func TestInfinityNorm3D(t *testing.T) {
	data, shape := field3D(15, 18, 21, 3)
	for _, bound := range []float64{1, 0.1, 1e-3} {
		infRoundTrip(t, data, shape, bound)
	}
}

func TestInfinityNorm2D(t *testing.T) {
	data, shape := field2D(50, 70, 4)
	for _, bound := range []float64{5, 0.01} {
		infRoundTrip(t, data, shape, bound)
	}
}

func TestInfinityNormOddShapes(t *testing.T) {
	shapes := []grid.Dims{
		grid.MustDims(2, 2),
		grid.MustDims(3, 5),
		grid.MustDims(17, 1),
		grid.MustDims(2, 3, 5),
		grid.MustDims(9, 1, 9),
	}
	rng := rand.New(rand.NewSource(6))
	for _, shape := range shapes {
		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = rng.Float32() * 50
		}
		infRoundTrip(t, data, shape, 0.05)
	}
}

func TestL2NormControlsMSE(t *testing.T) {
	data, shape := field3D(20, 20, 20, 7)
	for _, mseBound := range []float64{1e-2, 1e-4} {
		comp, err := Compress(data, shape, Options{Norm: NormL2, Bound: mseBound})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := metrics.Evaluate(data, dec, len(comp), 4)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MSE > mseBound {
			t.Errorf("MSE %v exceeds bound %v", rep.MSE, mseBound)
		}
	}
}

func TestLooserBoundCompressesBetter(t *testing.T) {
	data, shape := field3D(24, 24, 24, 8)
	tight, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) >= len(tight) {
		t.Errorf("looser bound should compress better: %d vs %d", len(loose), len(tight))
	}
}

func TestCompressionRatioReasonable(t *testing.T) {
	data, shape := field2D(128, 128, 9)
	comp, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cr := metrics.CompressionRatio(len(data)*4, len(comp))
	if cr < 3 {
		t.Errorf("smooth 2-D data at bound 0.5 should exceed 3:1, got %.2f", cr)
	}
}

func TestUnsupportedRank(t *testing.T) {
	if _, err := Compress(make([]float32, 8), grid.MustDims(8), Options{Norm: NormInfinity, Bound: 1}); err != ErrUnsupportedRank {
		t.Errorf("1-D should return ErrUnsupportedRank, got %v", err)
	}
	if _, err := Compress(make([]float32, 16), grid.MustDims(2, 2, 2, 2), Options{Norm: NormInfinity, Bound: 1}); err != ErrUnsupportedRank {
		t.Errorf("4-D should return ErrUnsupportedRank, got %v", err)
	}
}

func TestInvalidOptions(t *testing.T) {
	data := make([]float32, 4)
	shape := grid.MustDims(2, 2)
	if _, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: 0}); err == nil {
		t.Errorf("zero bound should fail")
	}
	if _, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: math.NaN()}); err == nil {
		t.Errorf("NaN bound should fail")
	}
	// The step, bound/2/(levels+1), underflows to 0.
	if _, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: 5e-324}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("bound 5e-324: %v, want ErrInvalidInput", err)
	}
	if _, err := Compress(data, shape, Options{Norm: Norm(5), Bound: 1}); err == nil {
		t.Errorf("unknown norm should fail")
	}
	if _, err := Compress(data, grid.MustDims(3, 3), Options{Norm: NormInfinity, Bound: 1}); err == nil {
		t.Errorf("shape mismatch should fail")
	}
}

// hostileStreams returns a valid stream of 64 values and its two forgeries
// (codestreamtest.Forge): a literal count of two billion, and a DEFLATE bomb
// of bombSize bytes for a body.
func hostileStreams[T grid.Float](t testing.TB, bombSize int) (valid, forged, bomb []byte) {
	t.Helper()
	data := make([]T, 64)
	for i := range data {
		data[i] = T(i%9) / 4
	}
	valid, err := Compress(data, grid.MustDims(8, 8), Options{Norm: NormInfinity, Bound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	forged, bomb, err = codestreamtest.Forge(valid, codestreamtest.Layout{HeaderLen: fixedHeaderLen + 8, FlagOffset: 5}, bombSize)
	if err != nil {
		t.Fatal(err)
	}
	return valid, forged, bomb
}

// TestDecompressCorrupt is the corruption table: every row must fail with
// ErrCorrupt, and must do so cheaply — a stream of a few hundred bytes that
// makes the decoder allocate gigabytes (or inflate a bomb) before it notices
// is a denial of service even when the error is right. The header rows are
// smoke rows: the preamble they reach is tested in full in internal/grid.
func TestDecompressCorrupt(t *testing.T) {
	valid32, forged32, bomb32 := hostileStreams[float32](t, 64<<20)
	_, forged64, bomb64 := hostileStreams[float64](t, 64<<20)
	badMagic := append([]byte(nil), valid32...)
	badMagic[1] ^= 0xFF
	// Compress writes a positive, finite step.
	infStep := append([]byte(nil), valid32...)
	binary.LittleEndian.PutUint64(infStep[7:15], math.Float64bits(math.Inf(1)))
	shape := grid.MustDims(8, 8)
	rows := []struct {
		name   string
		stream []byte
		shape  grid.Dims
		wide   bool
	}{
		{"short buffer", []byte{0, 1, 2}, shape, false},
		{"bad magic", badMagic, shape, false},
		{"shape mismatch", valid32, grid.MustDims(9, 8), false},
		{"step +Inf", infStep, shape, false},
		{"truncated body", valid32[:len(valid32)-3], shape, false},
		{"forged literal count f32", forged32, shape, false},
		{"forged literal count f64", forged64, shape, true},
		{"deflate bomb f32", bomb32, shape, false},
		{"deflate bomb f64", bomb64, shape, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if row.wide {
				err = DecompressInto(make([]float64, row.shape.Len()), row.stream, row.shape)
			} else {
				err = DecompressInto(make([]float32, row.shape.Len()), row.stream, row.shape)
			}
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want an error wrapping ErrCorrupt", err)
			}
			if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 1<<20 {
				t.Errorf("rejecting a %d-byte stream allocated %d bytes, want under 1 MiB", len(row.stream), allocated)
			}
		})
	}
	if _, err := decoded[float32](valid32, shape); err != nil {
		t.Errorf("the valid stream: %v", err)
	}
}

// TestBadHeaderStepRefusedBeforeBody requires a header's quantisation step
// to be checked before the body is inflated and decoded: on a 64³ field a
// bad step is refused after allocating under 64 KiB besides the output,
// where decoding the body first takes megabytes.
func TestBadHeaderStepRefusedBeforeBody(t *testing.T) {
	data, shape := field3D(64, 64, 64, 3)
	valid, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, shape.Len())
	if err := DecompressInto(dst, valid, shape); err != nil {
		t.Fatalf("the valid stream: %v", err)
	}
	for _, step := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(bad[7:15], math.Float64bits(step))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecompressInto(dst, bad, shape)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("step %v: got %v, want an error wrapping ErrCorrupt", step, err)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= 64<<10 {
			t.Errorf("step %v: refusing a %d-byte stream allocated %d bytes, want under 64 KiB", step, len(bad), allocated)
		}
	}
}

func TestNormString(t *testing.T) {
	if NormInfinity.String() != "infinity" || NormL2.String() != "l2" {
		t.Errorf("unexpected norm names")
	}
	if Norm(9).String() == "" {
		t.Errorf("unknown norm string should not be empty")
	}
}

func TestNumLevels(t *testing.T) {
	cases := []struct {
		shape grid.Dims
		want  int
	}{
		{grid.MustDims(2, 2), 1},
		{grid.MustDims(4, 4), 1},
		{grid.MustDims(5, 5), 2},
		{grid.MustDims(64, 64), 5},
		{grid.MustDims(65, 65), 6},
		{grid.MustDims(100, 3, 3), 6},
	}
	for _, c := range cases {
		if got := numLevels(c.shape); got != c.want {
			t.Errorf("numLevels(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestPropertyInfinityBoundHolds(t *testing.T) {
	f := func(seed int64, boundExp uint8, useThreeD bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var shape grid.Dims
		if useThreeD {
			shape = grid.MustDims(7, 6, 9)
		} else {
			shape = grid.MustDims(21, 17)
		}
		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = float32(40*math.Sin(float64(i)/17) + rng.NormFloat64())
		}
		bound := math.Pow(10, -float64(boundExp%5))
		comp, err := Compress(data, shape, Options{Norm: NormInfinity, Bound: bound})
		if err != nil {
			return false
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			return false
		}
		return metrics.MaxAbsError(data, dec) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func benchCompress(b *testing.B, data []float32, shape grid.Dims, opts Options) {
	b.SetBytes(int64(len(data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, shape, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecompress(b *testing.B, data []float32, shape grid.Dims, opts Options) {
	comp, err := Compress(data, shape, opts)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, len(data))
	b.SetBytes(int64(len(data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecompressInto(dst, comp, shape); err != nil {
			b.Fatal(err)
		}
	}
}

// The 64³ pair runs at a tight bound, where building the Huffman code over
// thousands of distinct symbols is a large share of compress.
func BenchmarkCompressInfinity3D(b *testing.B) {
	data, shape := field3D(64, 64, 64, 1)
	benchCompress(b, data, shape, Options{Norm: NormInfinity, Bound: 1e-2})
}

func BenchmarkDecompressInfinity3D(b *testing.B) {
	data, shape := field3D(64, 64, 64, 1)
	benchDecompress(b, data, shape, Options{Norm: NormInfinity, Bound: 1e-2})
}

// looseField is a field of a fixed-ratio search's sample size, 32×64×64
// float32 (512 KiB), with a bound of 3 % of its value range: the regime
// where the level walk and the quantise loop, not the Huffman tree, take
// the time.
func looseField() ([]float32, grid.Dims, Options) {
	data, shape := field3D(32, 64, 64, 1)
	return data, shape, Options{Norm: NormInfinity, Bound: 3e-2 * grid.ValueRange(data)}
}

func BenchmarkCompressLoose3D(b *testing.B) {
	data, shape, opts := looseField()
	benchCompress(b, data, shape, opts)
}

func BenchmarkDecompressLoose3D(b *testing.B) {
	data, shape, opts := looseField()
	benchDecompress(b, data, shape, opts)
}
