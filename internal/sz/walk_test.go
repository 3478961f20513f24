package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fraz/internal/grid"
)

// The reference walk: the row-major, point-at-a-time encoder and decoder
// the wavefront walks replaced, one call to Quantizer per point,
// with the predictor selection that summed Aᵀb, the Lorenzo residual and
// the regression residual in three passes. It shares padBlock, row,
// regressRow, normalMatrix and solve4 with the package; the one change from
// the old code is the explicit rounding of the products that used to feed
// an addition directly (see loops.go), which amd64 never fused.

// Quantizer is the linear-scaling quantiser the walks write out: under an
// absolute error bound e, a value v predicted as p has the code
// round((v − p)/2e) and is reconstructed as p + 2e·code, so |v − v'| ≤ e.
// A code outside [−Intervals/2, Intervals/2 − 1] marks v unpredictable,
// stored verbatim by the caller.
type Quantizer struct {
	ErrorBound float64
	Intervals  int
}

// Quantize converts the difference between value and prediction into an
// integer code. ok is false when the residual does not fit in the code range
// (the caller should store the value verbatim). When ok is true, the
// reconstruction returned by Dequantize(pred, code) differs from value by at
// most ErrorBound.
func (q *Quantizer) Quantize(value, pred float64) (code int32, recon float64, ok bool) {
	diff := value - pred
	half := float64(q.Intervals / 2)
	c := math.Round(diff / (2 * q.ErrorBound))
	if math.IsNaN(c) || c >= half || c < -half {
		return 0, value, false
	}
	code = int32(c)
	recon = pred + float64(2*q.ErrorBound*float64(code))
	// Guard against floating-point rounding pushing the reconstruction just
	// outside the bound; in that rare case fall back to verbatim storage.
	if math.Abs(recon-value) > q.ErrorBound {
		return 0, value, false
	}
	return code, recon, true
}

// Dequantize reconstructs a value from a prediction and a quantization code.
// The product is rounded before the addition, as in Quantize, so no target
// fuses the two into one multiply-add: the decoder must compute the very
// reconstruction the encoder checked against the bound.
func (q *Quantizer) Dequantize(pred float64, code int32) float64 {
	return pred + float64(2*q.ErrorBound*float64(code))
}

type refEncoder[T grid.Float] struct {
	q        *Quantizer
	bound    float64
	data     []T
	recon    []T
	codes    []int32
	literals []T
}

func (e *refEncoder[T]) point(off int, pred float64) {
	v := float64(e.data[off])
	code, rec, ok := e.q.Quantize(v, pred)
	if ok {
		recT := T(rec)
		if math.Abs(float64(recT)-v) > e.bound {
			ok = false
		} else {
			e.codes = append(e.codes, code)
			e.recon[off] = recT
		}
	}
	if !ok {
		e.codes = append(e.codes, unpredictable)
		e.literals = append(e.literals, e.data[off])
		e.recon[off] = e.data[off]
	}
}

// refLorenzo is the Lorenzo prediction at off from r, each neighbour read
// only when the point has it: the expressions of the old row kernels.
func refLorenzo[T grid.Float](r []T, off, sz, sy int, hz, hy, hx bool) float64 {
	switch {
	case hx && hz && hy:
		fx := float64(r[off-1])
		fy := float64(r[off-sy])
		fz := float64(r[off-sz])
		fxy := float64(r[off-1-sy])
		fxz := float64(r[off-1-sz])
		fyz := float64(r[off-sy-sz])
		fxyz := float64(r[off-1-sy-sz])
		return fx + fy + fz - fxy - fxz - fyz + fxyz
	case hx && hz:
		return float64(r[off-1]) + float64(r[off-sz]) - float64(r[off-1-sz])
	case hx && hy:
		return float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
	case hx:
		return float64(r[off-1])
	case hz && hy:
		return float64(r[off-sy]) + float64(r[off-sz]) - float64(r[off-sy-sz])
	case hz:
		return float64(r[off-sz])
	case hy:
		return float64(r[off-sy])
	}
	return 0
}

// refWalk visits a block row-major and calls point with each point's
// offset and prediction; lorenzo selects the predictor.
func refWalk[T grid.Float](b *block, r []T, lorenzo bool, coeffs [4]float64, point func(off int, pred float64)) {
	ci := coeffs[b.nd]
	for l0 := 0; l0 < b.size[0]; l0++ {
		for l1 := 0; l1 < b.size[1]; l1++ {
			base, z, y := b.row(l0, l1)
			pred := b.regressRow(&coeffs, l0, l1)
			for i := 0; i < b.size[2]; i++ {
				if lorenzo {
					point(base+i, refLorenzo(r, base+i, b.stride[0], b.stride[1], z > 0, y > 0, b.start[2]+i > 0))
				} else {
					point(base+i, pred+float64(ci*float64(i)))
				}
			}
		}
	}
}

// refFitRegression is the least-squares fit with Aᵀb summed in its own
// row-major pass, one sum per padded axis.
func refFitRegression[T grid.Float](data []T, b *block) [4]float64 {
	var s0 float64
	var s [3]float64
	for l0 := 0; l0 < b.size[0]; l0++ {
		f0 := float64(l0)
		for l1 := 0; l1 < b.size[1]; l1++ {
			f1 := float64(l1)
			base, _, _ := b.row(l0, l1)
			for i, v := range data[base : base+b.size[2]] {
				fv := float64(v)
				s0 += fv
				s[0] += float64(f0 * fv)
				s[1] += float64(f1 * fv)
				s[2] += float64(float64(i) * fv)
			}
		}
	}
	atb := [4]float64{s0}
	o := 3 - b.nd
	for q := range s {
		if q >= o {
			atb[q-o+1] = s[q]
		} else {
			atb[b.nd+1+q] = s[q]
		}
	}
	return solve4(normalMatrix(b), atb)
}

// refRegressionBeatsLorenzo compares the two residual sums, each in
// row-major order, the Lorenzo one with the absent neighbours left out.
func refRegressionBeatsLorenzo[T grid.Float](data []T, b *block, coeffs [4]float64) bool {
	var errRegress, errLorenzo float64
	ci := coeffs[b.nd]
	for l0 := 0; l0 < b.size[0]; l0++ {
		for l1 := 0; l1 < b.size[1]; l1++ {
			base, z, y := b.row(l0, l1)
			pred := b.regressRow(&coeffs, l0, l1)
			for i, v := range data[base : base+b.size[2]] {
				errRegress += math.Abs(float64(v) - (pred + float64(ci*float64(i))))
			}
			for i, v := range data[base : base+b.size[2]] {
				p := refLorenzo(data, base+i, b.stride[0], b.stride[1], z > 0, y > 0, b.start[2]+i > 0)
				errLorenzo += math.Abs(float64(v) - p)
			}
		}
	}
	return errRegress < errLorenzo
}

// refEncode is encode as the reference walk does it.
func refEncode[T grid.Float](data []T, shape grid.Dims, o Options) (codes []int32, literals []T, blockMeta []byte, recon []T) {
	q := &Quantizer{ErrorBound: o.ErrorBound, Intervals: o.Intervals}
	e := &refEncoder[T]{q: q, bound: o.ErrorBound, data: data, recon: make([]T, len(data)), literals: make([]T, 0)}
	strides := shape.Strides()
	for _, gb := range shape.Blocks(o.BlockSize) {
		b := padBlock(gb, strides)
		var coeffs [4]float64
		useRegress := false
		if gb.Len() >= 8 {
			coeffs = refFitRegression(data, &b)
			useRegress = refRegressionBeatsLorenzo(data, &b, coeffs)
		}
		if useRegress {
			blockMeta = append(blockMeta, predRegress)
			for _, c := range coeffs {
				blockMeta = binary.LittleEndian.AppendUint64(blockMeta, math.Float64bits(c))
			}
		} else {
			blockMeta = append(blockMeta, predLorenzo)
		}
		refWalk(&b, e.recon, !useRegress, coeffs, e.point)
	}
	return e.codes, e.literals, blockMeta, e.recon
}

// refDecode is decode as the reference walk does it: codes and literals
// consumed in visit order.
func refDecode[T grid.Float](h header, codes []int32, literals []T, blockMeta []byte) ([]T, error) {
	q := &Quantizer{ErrorBound: h.errorBound, Intervals: h.intervals}
	recon := make([]T, h.shape.Len())
	strides := h.shape.Strides()
	var failed error
	for _, gb := range h.shape.Blocks(h.blockSize) {
		b := padBlock(gb, strides)
		var coeffs [4]float64
		sel := blockMeta[0]
		if sel == predRegress {
			for i := range coeffs {
				coeffs[i] = math.Float64frombits(binary.LittleEndian.Uint64(blockMeta[1+8*i:]))
			}
			blockMeta = blockMeta[33:]
		} else {
			blockMeta = blockMeta[1:]
		}
		refWalk(&b, recon, sel == predLorenzo, coeffs, func(off int, pred float64) {
			code := codes[0]
			codes = codes[1:]
			switch {
			case code != unpredictable:
				recon[off] = T(q.Dequantize(pred, code))
			case len(literals) == 0:
				failed = errors.New("literal stream exhausted")
			default:
				recon[off] = literals[0]
				literals = literals[1:]
			}
		})
	}
	return recon, failed
}

// sameBits reports the first index at which two slices differ in any bit,
// or -1.
func sameBits[T grid.Float](a, b []T) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// checkWalk encodes data with encode and with refEncode and requires the
// same codes, literals, block records and reconstruction, bit for bit; it
// then decodes the reference's streams with decode and requires the
// reference decoder's reconstruction, and that a literal stream one value
// short is refused.
func checkWalk[T grid.Float](t *testing.T, data []T, shape grid.Dims, opts Options) {
	t.Helper()
	o := opts.withDefaults(shape.NDims())
	wantCodes, wantLits, wantMeta, wantRecon := refEncode(data, shape, o)
	recon, codes := make([]T, len(data)), make([]int32, len(data))
	lits, meta := encode(data, shape, o, recon, codes)
	for i := range codes {
		if codes[i] != wantCodes[i] {
			t.Fatalf("%v %+v: code %d is %d, the reference walk writes %d", shape, o, i, codes[i], wantCodes[i])
		}
	}
	if i := sameBits(lits, wantLits); i >= 0 {
		t.Fatalf("%v %+v: %d literals, the reference walk %d; first difference at %d", shape, o, len(lits), len(wantLits), i)
	}
	if string(meta) != string(wantMeta) {
		t.Fatalf("%v %+v: block records differ from the reference walk's", shape, o)
	}
	if i := sameBits(recon, wantRecon); i >= 0 {
		t.Fatalf("%v %+v: reconstruction %d is %v, the reference walk has %v", shape, o, i, recon[i], wantRecon[i])
	}

	h := header{shape: shape, blockSize: o.BlockSize, errorBound: o.ErrorBound, intervals: o.Intervals}
	want, err := refDecode(h, wantCodes, wantLits, wantMeta)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]T, len(data))
	if err := decode(got, h, wantCodes, wantLits, wantMeta); err != nil {
		t.Fatalf("%v %+v: decode: %v", shape, o, err)
	}
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("%v %+v: decoded value %d is %v, the reference decoder gives %v", shape, o, i, got[i], want[i])
	}
	if i := sameBits(got, wantRecon); i >= 0 {
		t.Fatalf("%v %+v: decoded value %d is %v, the encoder reconstructed %v", shape, o, i, got[i], wantRecon[i])
	}
	if len(wantLits) > 0 {
		if err := decode(got, h, wantCodes, wantLits[1:], wantMeta); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%v %+v: one literal short: %v, want ErrCorrupt", shape, o, err)
		}
	}
}

// walkField fills a field of n values from seed: a smooth trend with a
// little noise and, at the given rate out of 256, the values the walks
// treat specially — zeros of both signs, subnormals, NaN and infinities of
// both signs.
func walkField[T grid.Float](n int, seed int64, rate uint8) []T {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030, math.SmallestNonzeroFloat32, math.NaN(), math.Inf(1), math.Inf(-1)}
	out := make([]T, n)
	for i := range out {
		if rng.Intn(256) < int(rate) {
			out[i] = T(specials[rng.Intn(len(specials))])
			continue
		}
		out[i] = T(40*math.Sin(float64(i)/7) + float64(i%11)/4 + rng.NormFloat64()/8)
	}
	return out
}

// zeroField fills a field of n values from seed with zeros of random
// sign. Every block ties its two residual sums at 0, where the choice turns
// on the exact sums.
func zeroField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = math.Copysign(0, -1)
		}
	}
	return out
}

// walkCases are the fields and bounds the reference test runs on every
// shape.
var walkCases = []struct {
	name  string
	bound float64
	field func(n int, seed int64) []float64
}{
	{"smooth", 0.05, func(n int, seed int64) []float64 { return walkField[float64](n, seed, 0) }},
	{"specials", 0.05, func(n int, seed int64) []float64 { return walkField[float64](n, seed, 24) }},
	{"literals", 1e-7, func(n int, seed int64) []float64 { return walkField[float64](n, seed, 0) }},
	{"zeros", 0.05, func(n int, seed int64) []float64 { return zeroField(n, seed) }},
}

// narrow converts a float64 field to T.
func narrow[T grid.Float](data []float64) []T {
	out := make([]T, len(data))
	for i, v := range data {
		out[i] = T(v)
	}
	return out
}

// TestWalkMatchesReference requires encode and decode to produce the
// reference walk's codes, literals, block records and reconstruction bit
// for bit, at both widths, at ranks 1 to 3 on extents that cross the
// default block edges (128, 12 and 6): on a smooth field, on one holding
// ±0, subnormals, NaN and ±Inf, at a bound tight enough to make most
// values literals, and on a field of signed zeros.
func TestWalkMatchesReference(t *testing.T) {
	var shapes []grid.Dims
	for _, x := range []int{1, 2, 3, 7, 127, 128, 129, 257, 300} {
		shapes = append(shapes, grid.MustDims(x))
	}
	edges2 := []int{1, 2, 3, 5, 11, 12, 13, 25}
	for _, y := range edges2 {
		for _, x := range edges2 {
			shapes = append(shapes, grid.MustDims(y, x))
		}
	}
	edges3 := []int{1, 2, 3, 5, 6, 7, 13}
	if testing.Short() {
		edges3 = []int{1, 5, 7}
	}
	for _, z := range edges3 {
		for _, y := range edges3 {
			for _, x := range edges3 {
				shapes = append(shapes, grid.MustDims(z, y, x))
			}
		}
	}
	for i, shape := range shapes {
		for _, c := range walkCases {
			t.Run(fmt.Sprintf("%v/%s", shape, c.name), func(t *testing.T) {
				data := c.field(shape.Len(), int64(i))
				checkWalk(t, narrow[float32](data), shape, Options{ErrorBound: c.bound})
				checkWalk(t, data, shape, Options{ErrorBound: c.bound})
			})
		}
	}
	// A −0 prediction meeting a −0 quotient, planted: a value within the
	// bound whose x−1 and y−1 neighbours are −0 literals (a huge value
	// beside each makes it one) and whose x−1,y−1 neighbour is +0. Blocks
	// of 2×2 are always Lorenzo blocks, and every 2×2 block but the
	// domain-edge ones has an interior point.
	for _, ext := range []int{9, 25} {
		data := make([]float64, ext*ext)
		tile := [3][3]float64{{0, 0, 1e30}, {0, 0, math.Copysign(0, -1)}, {1e30, math.Copysign(0, -1), -0.0125}}
		for y := 1; y+3 <= ext; y += 4 {
			for x := 1; x+3 <= ext; x += 4 {
				for i, row := range tile {
					copy(data[(y+i)*ext+x:], row[:])
				}
			}
		}
		for _, bs := range []int{0, 2} {
			checkWalk(t, narrow[float32](data), grid.MustDims(ext, ext), Options{ErrorBound: 0.05, BlockSize: bs})
			checkWalk(t, data, grid.MustDims(ext, ext), Options{ErrorBound: 0.05, BlockSize: bs})
		}
	}
	// Quotients that are exact halves, the ties rounding breaks away from
	// zero, and quotients on the edges of a small code range: with 2e = 1 a
	// Lorenzo quotient is v − pred, a multiple of ½ on a field of halves.
	// One-point blocks are all Lorenzo blocks.
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []grid.Dims{grid.MustDims(300), grid.MustDims(9, 10, 11)} {
		data := make([]float64, shape.Len())
		for i := range data {
			data[i] = float64(rng.Intn(25)-12) / 2
		}
		for _, o := range []Options{{ErrorBound: 0.5, BlockSize: 1}, {ErrorBound: 0.5, BlockSize: 1, Intervals: 8}, {ErrorBound: 0.5, Intervals: 8}} {
			checkWalk(t, narrow[float32](data), shape, o)
			checkWalk(t, data, shape, o)
		}
	}
	// Block sizes other than the default, and a quantiser of few intervals
	// whose codes run out of range.
	data := walkField[float32](9*10*11, 1, 8)
	for _, o := range []Options{{ErrorBound: 0.05, BlockSize: 1}, {ErrorBound: 0.05, BlockSize: 4}, {ErrorBound: 0.05, BlockSize: 16}, {ErrorBound: 1e-3, Intervals: 8}} {
		checkWalk(t, data, grid.MustDims(9, 10, 11), o)
	}
}

// FuzzWalk is TestWalkMatchesReference on a shape, a field, a bound and a
// block size drawn by the fuzzer: rank 1 to 3, extents 1–40, a bound of
// 2^-boundExp, block edge 1–16 or the default. Its seeds are in
// testdata/fuzz/FuzzWalk.
func FuzzWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, rank, e0, e1, e2, rate, boundExp, blockSize uint8, wide bool) {
		ext := func(e uint8) int { return 1 + int(e)%40 }
		var shape grid.Dims
		switch rank % 3 {
		case 0:
			shape = grid.MustDims(ext(e2) * ext(e1))
		case 1:
			shape = grid.MustDims(ext(e1), ext(e2))
		default:
			shape = grid.MustDims(ext(e0), ext(e1), ext(e2))
		}
		o := Options{ErrorBound: math.Ldexp(1, -int(boundExp%40)), BlockSize: int(blockSize % 17)}
		if wide {
			checkWalk(t, walkField[float64](shape.Len(), seed, rate), shape, o)
		} else {
			checkWalk(t, walkField[float32](shape.Len(), seed, rate), shape, o)
		}
	})
}

// The reference Quantizer's own contract, and checkQuantiser's refusals.

func TestCheckQuantiserRejectsBadBounds(t *testing.T) {
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := checkQuantiser(eb, defaultIntervals); err == nil {
			t.Errorf("bound %v should fail", eb)
		}
	}
	if err := checkQuantiser(1e-300, defaultIntervals); err != nil {
		t.Errorf("bound 1e-300: %v", err)
	}
}

func TestCheckQuantiserRejectsSmallCapacity(t *testing.T) {
	for _, n := range []int{-4, 0, 2, 3} {
		if err := checkQuantiser(1.0, n); err == nil {
			t.Errorf("intervals %d should fail", n)
		}
	}
	if err := checkQuantiser(1.0, 4); err != nil {
		t.Errorf("intervals 4: %v", err)
	}
}

func TestQuantizeExactAtPrediction(t *testing.T) {
	q := &Quantizer{ErrorBound: 0.5, Intervals: defaultIntervals}
	code, recon, ok := q.Quantize(10.0, 10.0)
	if !ok || code != 0 || recon != 10.0 {
		t.Errorf("got code=%d recon=%v ok=%v", code, recon, ok)
	}
}

func TestQuantizeRespectsBound(t *testing.T) {
	q := &Quantizer{ErrorBound: 0.01, Intervals: defaultIntervals}
	values := []float64{0, 0.004, 0.009, 0.011, 1.2345, -3.3, 100.5}
	pred := 0.0
	for _, v := range values {
		code, recon, ok := q.Quantize(v, pred)
		if !ok {
			continue
		}
		if math.Abs(recon-v) > q.ErrorBound {
			t.Errorf("value %v: reconstruction %v exceeds bound (code %d)", v, recon, code)
		}
		if got := q.Dequantize(pred, code); got != recon {
			t.Errorf("Dequantize mismatch: %v vs %v", got, recon)
		}
	}
}

func TestQuantizeOverflowIsUnpredictable(t *testing.T) {
	q := &Quantizer{ErrorBound: 1e-6, Intervals: 256}
	_, recon, ok := q.Quantize(1000.0, 0.0)
	if ok {
		t.Errorf("residual far beyond capacity should be unpredictable")
	}
	if recon != 1000.0 {
		t.Errorf("unpredictable reconstruction should echo the value, got %v", recon)
	}
}

func TestQuantizeNaNResidual(t *testing.T) {
	q := &Quantizer{ErrorBound: 0.1, Intervals: defaultIntervals}
	if _, _, ok := q.Quantize(math.NaN(), 0); ok {
		t.Errorf("NaN value should be unpredictable")
	}
}

func TestPropertyBoundAlwaysRespected(t *testing.T) {
	f := func(value, pred float64, ebExp uint8) bool {
		if math.IsNaN(value) || math.IsInf(value, 0) || math.IsNaN(pred) || math.IsInf(pred, 0) {
			return true
		}
		eb := math.Pow(10, -float64(ebExp%8)) // 1 .. 1e-7
		q := &Quantizer{ErrorBound: eb, Intervals: defaultIntervals}
		code, recon, ok := q.Quantize(value, pred)
		if !ok {
			return recon == value
		}
		if math.Abs(recon-value) > eb {
			return false
		}
		return q.Dequantize(pred, code) == recon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCodeZeroWhenWithinBound(t *testing.T) {
	f := func(residFrac float64) bool {
		if math.IsNaN(residFrac) || math.IsInf(residFrac, 0) {
			return true
		}
		// residual strictly inside (-eb, eb) must quantize to code 0
		eb := 0.125
		frac := math.Mod(math.Abs(residFrac), 0.99)
		q := &Quantizer{ErrorBound: eb, Intervals: defaultIntervals}
		code, _, ok := q.Quantize(10+frac*eb, 10)
		return ok && code == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
