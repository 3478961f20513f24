package pressio

import (
	"bytes"
	"context"
	"math"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// conformanceShapes holds one small shape per rank 1–4.
var conformanceShapes = []grid.Dims{
	grid.MustDims(96),
	grid.MustDims(10, 12),
	grid.MustDims(6, 8, 10),
	grid.MustDims(3, 4, 5, 6),
}

// conformanceField fills the shape with a smooth signal of range ≈ 110 at
// either width.
func conformanceField(t *testing.T, shape grid.Dims, dt container.DType) Buffer {
	t.Helper()
	n := shape.Len()
	f64 := make([]float64, n)
	for i := range f64 {
		f64[i] = math.Sin(float64(i)/9)*40 + math.Cos(float64(i)/23)*15
	}
	var buf Buffer
	var err error
	if dt == container.Float64 {
		buf, err = NewBufferOf(f64, shape)
	} else {
		f32 := make([]float32, n)
		for i, v := range f64 {
			f32[i] = float32(v)
		}
		buf, err = NewBufferOf(f32, shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// conformanceParam picks an operating point inside the domain: 10^-3 of the
// range for an error, a whole number of bits otherwise.
func conformanceParam(p Param, vr float64) float64 {
	switch p.Unit {
	case UnitAbsError:
		return vr * 1e-3
	case UnitSquaredError:
		return vr * vr * 1e-6
	case UnitRangeFraction:
		return 1e-3
	}
	return 12
}

func values(b Buffer) []float64 {
	if b.DType() == container.Float64 {
		return b.Float64()
	}
	out := make([]float64, b.Len())
	for i, v := range b.Float32() {
		out[i] = float64(v)
	}
	return out
}

// TestCodecConformance holds every registered descriptor to what it
// declares, for both element widths and ranks 1–4: inside the rank window
// the codec round-trips and — when the parameter is an error — honours it;
// outside the window Compress and Decompress return an error; a fixed-rate
// codec's Size is the length of its stream at every admissible rate; and a
// parameter outside the declared domain is rejected.
func TestCodecConformance(t *testing.T) {
	for _, c := range Codecs() {
		p := c.Param
		if p.Name == "" || !(p.Lo < p.Hi) || c.MinRank < 1 || c.MaxRank < c.MinRank {
			t.Errorf("%s: implausible descriptor %+v", c.Name, c)
		}
		if c.Size != nil && !(p.Unit == UnitBits && p.Integer) {
			t.Errorf("%s: Size set on a parameter that is not a whole number of bits per value", c.Name)
		}
		for _, dt := range []container.DType{container.Float32, container.Float64} {
			for _, shape := range conformanceShapes {
				buf := conformanceField(t, shape, dt)
				name := c.Name + "/" + dt.String() + "/" + shape.String()
				param := conformanceParam(p, buf.ValueRange())
				if !c.SupportsShape(shape) {
					if _, err := c.Compress(buf, param); err == nil {
						t.Errorf("%s: compressed a rank outside [%d, %d]", name, c.MinRank, c.MaxRank)
					}
					if _, err := c.Decompress([]byte{1, 2, 3, 4}, shape, dt); err == nil {
						t.Errorf("%s: decompressed a rank outside [%d, %d]", name, c.MinRank, c.MaxRank)
					}
					continue
				}
				stream, err := c.Compress(buf, param)
				if err != nil {
					t.Errorf("%s: compress at %s=%g: %v", name, p.Name, param, err)
					continue
				}
				dec, err := c.Decompress(stream, shape, dt)
				if err != nil {
					t.Errorf("%s: decompress: %v", name, err)
					continue
				}
				if dec.DType() != dt || !dec.Shape.Equal(shape) {
					t.Errorf("%s: reconstruction is %s %v", name, dec.DType(), dec.Shape)
					continue
				}
				checkErrorHonoured(t, name, p, param, values(buf), values(dec), dt)
				checkDomainEnforced(t, name, c, buf)
				if c.Size == nil {
					continue
				}
				for n := 1; n <= 8*dt.Size(); n++ {
					stream, err := c.Compress(buf, float64(n))
					if err != nil {
						t.Errorf("%s: compress at %d bits: %v", name, n, err)
					} else if want := c.Size(shape, n); len(stream) != want {
						t.Errorf("%s: %d bits: stream is %d bytes, Size says %d", name, n, len(stream), want)
					}
				}
			}
		}
	}
}

// checkErrorHonoured compares the reconstruction with the guarantee the
// parameter's unit states.
func checkErrorHonoured(t *testing.T, name string, p Param, param float64, orig, recon []float64, dt container.DType) {
	t.Helper()
	maxErr, sumSq, lo, hi := 0.0, 0.0, math.Inf(1), math.Inf(-1)
	for i := range orig {
		d := math.Abs(orig[i] - recon[i])
		maxErr = math.Max(maxErr, d)
		sumSq += d * d
		lo, hi = math.Min(lo, orig[i]), math.Max(hi, orig[i])
	}
	// float32 data carries narrowing rounding on top of whatever the codec
	// guarantees in its own arithmetic; allow a ULP-scale slack there.
	slack := 0.0
	if dt == container.Float32 {
		slack = math.Max(math.Abs(lo), math.Abs(hi)) * 1e-6
	}
	switch p.Unit {
	case UnitNone:
		if maxErr != 0 {
			t.Errorf("%s: lossless codec reconstructed with max error %g", name, maxErr)
		}
	case UnitAbsError:
		if maxErr > param+slack {
			t.Errorf("%s: max error %g exceeds %s %g", name, maxErr, p.Name, param)
		}
	case UnitRangeFraction:
		if limit := param*(hi-lo) + slack; maxErr > limit {
			t.Errorf("%s: max error %g exceeds %g of the range (%g)", name, maxErr, param, limit)
		}
	case UnitSquaredError:
		if mse := sumSq / float64(len(orig)); mse > param+slack*slack {
			t.Errorf("%s: MSE %g exceeds %s %g", name, mse, p.Name, param)
		}
	}
}

// checkDomainEnforced feeds Compress values outside the declared domain.
func checkDomainEnforced(t *testing.T, name string, c *Codec, buf Buffer) {
	t.Helper()
	if c.Param.Unit == UnitNone {
		return
	}
	lo, hi := c.Param.Limits(buf.DType())
	bad := []float64{lo / 2, hi * 2, 0, -1, math.NaN(), math.Inf(1)}
	if c.Param.Integer {
		bad = append(bad, lo+0.5)
	}
	for _, v := range bad {
		if _, err := c.Compress(buf, v); err == nil {
			t.Errorf("%s: accepted %s %v outside [%g, %g]", name, c.Param.Name, v, lo, hi)
		}
	}
}

// TestParamSnap pins the one place a searched real becomes the value an
// integer-domain codec runs at.
func TestParamSnap(t *testing.T) {
	whole := Param{Integer: true}
	for in, want := range map[float64]float64{7.6: 8, 8.2: 8, 8: 8, 1.5: 2} {
		if got := whole.Snap(in); got != want {
			t.Errorf("integer Snap(%v) = %v, want %v", in, got, want)
		}
	}
	if got := (Param{}).Snap(7.6); got != 7.6 {
		t.Errorf("real Snap(7.6) = %v", got)
	}
}

// TestSnapKeepsSlot pins what lets a tune's winning stream be sealed as it
// is (SealWith): an evaluation runs at Slot(v), the seal records and would
// run at Snap of that, and the two must be one value — for every registered
// domain, inside it, below Lo, above Hi, and at whole numbers past the
// quantisation grid's 9 significant bits (257 on a bit count).
func TestSnapKeepsSlot(t *testing.T) {
	for _, c := range Codecs() {
		p := c.Param
		vs := []float64{-3.4, 0, 0.3, 0.7, 1, 1.5, 7.6, 8.2, 12, 31.5, 257, 513, 1e6 + 1, math.Inf(1),
			p.Lo, p.Lo / 3, p.Lo * 1.0001, p.Hi, p.Hi * 3, p.Hi * 0.9999, math.Sqrt(p.Lo * p.Hi)}
		for _, v := range vs {
			if s := p.Slot(v); p.Snap(s) != s {
				t.Errorf("%s: Slot(%v) = %v, but Snap of it is %v", c.Name, v, s, p.Snap(s))
			}
		}
	}
}

// TestIntegerParameterIsSnappedBeforeItIsKeyedOrRecorded drives a
// whole-number domain with the reals a search proposes: 7.6 and 8.2 are one
// evaluation, reported at 8, and both seal paths record the 8 the stream
// was coded at.
func TestIntegerParameterIsSnappedBeforeItIsKeyedOrRecorded(t *testing.T) {
	c, _ := Lookup("zfp:precision")
	buf := testField3D()
	at8, err := c.Compress(buf, 8)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCache()
	ev := NewEvaluator(cache, c, buf)
	for _, req := range []float64{7.6, 8.2} {
		_, size, evaluated, err := ev.Ratio(req)
		if err != nil {
			t.Fatal(err)
		}
		if evaluated != 8 || size != len(at8) {
			t.Errorf("Ratio(%v) evaluated at %v (%d bytes), want 8 (%d bytes)", req, evaluated, size, len(at8))
		}
	}
	if hits, misses, _ := cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("7.6 and 8.2 cost %d compressions and %d hits, want one of each", misses, hits)
	}

	mono, err := SealBlocked(context.Background(), c, buf, 7.6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Header.Bound != 8 || !bytes.Equal(mono.Payload, at8) {
		t.Errorf("a one-block SealBlocked(7.6) records %v; the stream is the one coded at 8: %v", mono.Header.Bound, bytes.Equal(mono.Payload, at8))
	}
	blocked, err := SealBlocked(context.Background(), c, buf, 8.2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Header.Bound != 8 || len(blocked.Blocks) != 3 {
		t.Errorf("SealBlocked(8.2) records %v in %d blocks, want 8 in 3", blocked.Header.Bound, len(blocked.Blocks))
	}
}
