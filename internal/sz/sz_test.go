package sz

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

// synthetic3D produces a smooth 3-D field with a small noise component,
// similar in character to simulation output.
func synthetic3D(nz, ny, nx int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(nz, ny, nx)
	data := make([]float32, shape.Len())
	rng := rand.New(rand.NewSource(seed))
	i := 0
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(float64(x)/7)*math.Cos(float64(y)/9) + 0.5*math.Sin(float64(z)/5)
				v += 0.01 * rng.NormFloat64()
				data[i] = float32(v)
				i++
			}
		}
	}
	return data, shape
}

func synthetic1D(n int, seed int64) ([]float32, grid.Dims) {
	shape := grid.MustDims(n)
	data := make([]float32, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/40) + 0.05*rng.NormFloat64())
	}
	return data, shape
}

// decoded is DecompressInto into a field of its own.
func decoded[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	dst := make([]T, shape.Len())
	return dst, DecompressInto(dst, buf, shape)
}

func roundTrip(t *testing.T, data []float32, shape grid.Dims, eb float64) []float32 {
	t.Helper()
	comp, err := Compress(data, shape, Options{ErrorBound: eb})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(dec) != len(data) {
		t.Fatalf("length mismatch: %d vs %d", len(dec), len(data))
	}
	maxErr := metrics.MaxAbsError(data, dec)
	if maxErr > eb+1e-9 {
		t.Fatalf("error bound violated: maxErr=%v > eb=%v", maxErr, eb)
	}
	return dec
}

func TestRoundTrip3D(t *testing.T) {
	data, shape := synthetic3D(16, 20, 24, 1)
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-5} {
		roundTrip(t, data, shape, eb)
	}
}

func TestRoundTrip2D(t *testing.T) {
	shape := grid.MustDims(37, 53)
	data := make([]float32, shape.Len())
	for i := range data {
		y, x := i/53, i%53
		data[i] = float32(float64(x)*0.3 + float64(y)*0.7)
	}
	roundTrip(t, data, shape, 1e-3)
}

func TestRoundTrip1D(t *testing.T) {
	data, shape := synthetic1D(10000, 2)
	roundTrip(t, data, shape, 1e-4)
}

func TestRoundTripOddShapes(t *testing.T) {
	shapes := []grid.Dims{
		grid.MustDims(1),
		grid.MustDims(7),
		grid.MustDims(1, 1),
		grid.MustDims(5, 1, 13),
		grid.MustDims(6, 6, 6),
		grid.MustDims(7, 11, 13),
	}
	rng := rand.New(rand.NewSource(3))
	for _, shape := range shapes {
		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = rng.Float32() * 10
		}
		roundTrip(t, data, shape, 1e-2)
	}
}

func TestConstantField(t *testing.T) {
	shape := grid.MustDims(10, 10, 10)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = 42.5
	}
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decoded[float32](comp, shape)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.MaxAbsError(data, dec) > 1e-3 {
		t.Errorf("constant field error bound violated")
	}
	cr := metrics.CompressionRatio(len(data)*4, len(comp))
	if cr < 20 {
		t.Errorf("constant field should compress very well, got CR=%.1f", cr)
	}
}

func TestRandomNoiseStillBounded(t *testing.T) {
	shape := grid.MustDims(20, 20, 20)
	rng := rand.New(rand.NewSource(17))
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = rng.Float32()*2000 - 1000
	}
	roundTrip(t, data, shape, 0.5)
}

func TestExtremeValues(t *testing.T) {
	shape := grid.MustDims(64)
	data := make([]float32, 64)
	for i := range data {
		data[i] = float32(math.Pow(-10, float64(i%20)))
	}
	// A tiny bound forces most values into the unpredictable/literal path.
	roundTrip(t, data, shape, 1e-6)
}

func TestSmallerBoundGivesLowerRatio(t *testing.T) {
	data, shape := synthetic3D(24, 24, 24, 5)
	var prevSize int
	for i, eb := range []float64{1e-1, 1e-3, 1e-6} {
		comp, err := Compress(data, shape, Options{ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(comp) < prevSize {
			t.Errorf("tighter bound %g should not compress better: %d < %d", eb, len(comp), prevSize)
		}
		prevSize = len(comp)
	}
}

func TestCompressionRatioReasonable(t *testing.T) {
	data, shape := synthetic3D(32, 32, 32, 7)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	cr := metrics.CompressionRatio(len(data)*4, len(comp))
	if cr < 4 {
		t.Errorf("smooth data at 1e-2 should reach at least 4:1, got %.2f", cr)
	}
}

func TestInvalidInputs(t *testing.T) {
	data := make([]float32, 10)
	if _, err := Compress(data, grid.Dims{5}, Options{ErrorBound: 0.1}); err == nil {
		t.Errorf("length/shape mismatch should fail")
	}
	if _, err := Compress(data, grid.Dims{10}, Options{ErrorBound: 0}); err == nil {
		t.Errorf("zero error bound should fail")
	}
	if _, err := Compress(data, grid.Dims{}, Options{ErrorBound: 0.1}); err == nil {
		t.Errorf("empty shape should fail")
	}
	if _, err := Compress(data, grid.Dims{10}, Options{ErrorBound: math.NaN()}); err == nil {
		t.Errorf("NaN bound should fail")
	}
	// A negative block size once walked 1-point blocks and wrote its
	// two's complement into the header.
	if _, err := Compress(data, grid.Dims{10}, Options{ErrorBound: 0.1, BlockSize: -3}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative block size: %v, want ErrInvalidInput", err)
	}
	// Past 2^31 intervals a code could be the unpredictable marker.
	if _, err := Compress(data, grid.Dims{10}, Options{ErrorBound: 0.1, Intervals: 1<<31 + 2}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("2^31+2 intervals: %v, want ErrInvalidInput", err)
	}
	// Fewer than 4 intervals leave no room around code 0.
	for _, n := range []int{2, 3} {
		if _, err := Compress(data, grid.Dims{10}, Options{ErrorBound: 0.1, Intervals: n}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%d intervals: %v, want ErrInvalidInput", n, err)
		}
	}
}

// sz is registered for ranks 1 to 3 and has no predictor for a fourth axis:
// a 4-D field is refused on the way in, and a header declaring one on the
// way out.
func TestRankFourRefused(t *testing.T) {
	if _, err := Compress(make([]float32, 16), grid.MustDims(2, 2, 2, 2), Options{ErrorBound: 0.1}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("4-D Compress: %v, want ErrInvalidInput", err)
	}
	valid, err := Compress(make([]float32, 8), grid.MustDims(2, 2, 2), Options{ErrorBound: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 4 with the fourth extent 1: the same values, were it accepted.
	forged := append(append([]byte(nil), valid[:fixedHeaderLen+12]...), 1, 0, 0, 0)
	forged = append(forged, valid[fixedHeaderLen+12:]...)
	forged[5] = 4
	if _, _, err := parseHeader(forged); !errors.Is(err, ErrCorrupt) {
		t.Errorf("4-D header shape: %v, want ErrCorrupt", err)
	}
	if _, err := decoded[float32](forged, grid.MustDims(2, 2, 2, 1)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("4-D Decompress: %v, want ErrCorrupt", err)
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
	valid, err := Compress(data, grid.MustDims(64), Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	forged, bomb, err = codestreamtest.Forge(valid, codestreamtest.Layout{HeaderLen: fixedHeaderLen + 4, FlagOffset: 4, HeadChunks: 1}, bombSize)
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
	badMagic[0] ^= 0xFF
	// Compress never writes a block size of 0, and no block walk ends on it.
	zeroBlocks := append([]byte(nil), valid32...)
	copy(zeroBlocks[14:18], []byte{0, 0, 0, 0})
	// Compress writes a positive, finite bound and at least 4 intervals.
	withBound := func(e float64) []byte {
		s := append([]byte(nil), valid32...)
		binary.LittleEndian.PutUint64(s[6:14], math.Float64bits(e))
		return s
	}
	withIntervals := func(n uint32) []byte {
		s := append([]byte(nil), valid32...)
		binary.LittleEndian.PutUint32(s[18:22], n)
		return s
	}
	rows := []struct {
		name   string
		stream []byte
		wide   bool
	}{
		{"short buffer", []byte{1, 2, 3}, false},
		{"bad magic", badMagic, false},
		{"block size 0", zeroBlocks, false},
		{"bound 0", withBound(0), false},
		{"bound -1", withBound(-1), false},
		{"bound NaN", withBound(math.NaN()), false},
		{"bound +Inf", withBound(math.Inf(1)), false},
		{"intervals 2", withIntervals(2), false},
		{"intervals 3", withIntervals(3), false},
		{"truncated body", valid32[:len(valid32)-3], false},
		{"forged literal count f32", forged32, false},
		{"forged literal count f64", forged64, true},
		{"deflate bomb f32", bomb32, false},
		{"deflate bomb f64", bomb64, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var err error
			if row.wide {
				err = DecompressInto(make([]float64, 64), row.stream, grid.MustDims(64))
			} else {
				err = DecompressInto(make([]float32, 64), row.stream, grid.MustDims(64))
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
}

// TestBadHeaderBoundRefusedBeforeBody requires a header's error bound to be
// checked before the body is inflated and decoded: on a 64³ field a bad
// bound is refused after allocating under 64 KiB besides the output, where
// decoding the body first takes megabytes.
func TestBadHeaderBoundRefusedBeforeBody(t *testing.T) {
	data, shape := synthetic3D(64, 64, 64, 3)
	valid, err := Compress(data, shape, Options{ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, shape.Len())
	if err := DecompressInto(dst, valid, shape); err != nil {
		t.Fatalf("the valid stream: %v", err)
	}
	for _, e := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(bad[6:14], math.Float64bits(e))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecompressInto(dst, bad, shape)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bound %v: got %v, want an error wrapping ErrCorrupt", e, err)
		}
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= 64<<10 {
			t.Errorf("bound %v: refusing a %d-byte stream allocated %d bytes, want under 64 KiB", e, len(bad), allocated)
		}
	}
}

func TestDecompressShapeMismatch(t *testing.T) {
	data, shape := synthetic1D(100, 4)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decoded[float32](comp, grid.MustDims(50)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("shape mismatch: %v, want ErrCorrupt", err)
	}
	if _, err := decoded[float32](comp, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("no shape: %v, want ErrCorrupt", err)
	}
	if _, err := decoded[float32](comp, shape); err != nil {
		t.Errorf("matching shape: %v", err)
	}
}

func TestDecompressHeaderShape(t *testing.T) {
	data, shape := synthetic3D(8, 9, 10, 6)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-2})
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

func TestAblationOptions(t *testing.T) {
	data, shape := synthetic3D(16, 16, 16, 8)
	for _, opts := range []Options{
		{ErrorBound: 1e-3, BlockSize: 4, Intervals: 256},
	} {
		comp, err := Compress(data, shape, opts)
		if err != nil {
			t.Fatalf("Compress(%+v): %v", opts, err)
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			t.Fatalf("Decompress(%+v): %v", opts, err)
		}
		if metrics.MaxAbsError(data, dec) > opts.ErrorBound+1e-9 {
			t.Errorf("bound violated for %+v", opts)
		}
	}
}

func TestPropertyErrorBoundHolds(t *testing.T) {
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := grid.MustDims(6, 7, 8)
		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/13)*50 + rng.NormFloat64())
		}
		eb := math.Pow(10, -float64(ebExp%6)-1)
		comp, err := Compress(data, shape, Options{ErrorBound: eb})
		if err != nil {
			return false
		}
		dec, err := decoded[float32](comp, shape)
		if err != nil {
			return false
		}
		return metrics.MaxAbsError(data, dec) <= eb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompress3D(b *testing.B) {
	data, shape := synthetic3D(64, 64, 64, 1)
	b.SetBytes(int64(len(data) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, shape, Options{ErrorBound: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleField is the 32×64×64 block ratio-search samples, at element type
// T, with a bound of 3 % of its value range.
func sampleField[T grid.Float]() ([]T, grid.Dims, Options) {
	data32, shape := synthetic3D(32, 64, 64, 1)
	data := make([]T, len(data32))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range data32 {
		data[i] = T(v)
		lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
	}
	return data, shape, Options{ErrorBound: 0.03 * (hi - lo)}
}

func benchmarkCompressSample[T grid.Float](b *testing.B) {
	data, shape, o := sampleField[T]()
	b.SetBytes(int64(len(data) * grid.ElemSize[T]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(data, shape, o); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkDecompressSample[T grid.Float](b *testing.B) {
	data, shape, o := sampleField[T]()
	comp, err := Compress(data, shape, o)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]T, len(data))
	b.SetBytes(int64(len(data) * grid.ElemSize[T]()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecompressInto(dst, comp, shape); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressSample3D and BenchmarkDecompressSample3D run the kernel
// at the size and bound of ratio-search's tuning calls (benchmark/).
func BenchmarkCompressSample3D(b *testing.B) {
	b.Run("f32", benchmarkCompressSample[float32])
	b.Run("f64", benchmarkCompressSample[float64])
}

func BenchmarkDecompressSample3D(b *testing.B) {
	b.Run("f32", benchmarkDecompressSample[float32])
	b.Run("f64", benchmarkDecompressSample[float64])
}

func BenchmarkDecompress3D(b *testing.B) {
	data, shape := synthetic3D(64, 64, 64, 1)
	comp, err := Compress(data, shape, Options{ErrorBound: 1e-3})
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
