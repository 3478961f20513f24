// Package mgard implements a pure-Go multilevel (multigrid-style) lossy
// compressor modelled on MGARD (Ainsworth, Tugluk, Whitney, Klasky), the
// third back end evaluated by the paper.
//
// The compressor performs a hierarchical-surplus decomposition on a tensor
// grid: the grid nodes are partitioned into dyadic levels, and each "detail"
// node stores the difference between its value and the multilinear
// interpolation of its neighbouring coarser-level nodes. The multilevel
// coefficients are then uniformly quantized with a level-aware step chosen
// so that the requested norm bound is respected after reconstruction, and
// entropy coded with Huffman + DEFLATE.
//
// Two error-control modes are provided, mirroring MGARD's norms discussed in
// the paper (§II-A3): NormInfinity (equivalent to an absolute error bound)
// and NormL2 (controls the mean squared error).
//
// Like the MGARD release used in the paper, only 2-D and 3-D data are
// supported; the paper excludes the 1-D HACC and EXAALT datasets from its
// MGARD runs for the same reason.
package mgard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fraz/internal/codestream"
	"fraz/internal/grid"
	"fraz/internal/pool"
	"fraz/internal/quantize"
)

// magic32 and magic64 identify MGARD-Go streams of float32 and float64
// data. The element width is part of the magic, so a stream can never be
// decoded at the wrong precision — and float32 streams keep the exact bytes
// earlier builds wrote.
const (
	magic32 = 0x4D475231 // "MGR1"
	magic64 = 0x4D475232 // "MGR2"
)

// stream is mgard's preamble (internal/grid): its magics and ranks 2 and 3.
var stream = grid.Stream{Magic32: magic32, Magic64: magic64, MinRank: 2, MaxRank: 3, Corrupt: ErrCorrupt}

// unpredictable marks coefficients stored verbatim.
const unpredictable = int32(1 << 30)

// Norm selects the error-control norm.
type Norm uint8

const (
	// NormInfinity bounds the maximum absolute pointwise error.
	NormInfinity Norm = iota
	// NormL2 bounds the mean squared error of the reconstruction.
	NormL2
)

// String returns the norm name used in experiment tables.
func (n Norm) String() string {
	switch n {
	case NormInfinity:
		return "infinity"
	case NormL2:
		return "l2"
	default:
		return fmt.Sprintf("norm(%d)", uint8(n))
	}
}

// Options configures compression.
type Options struct {
	// Norm selects the error-control norm.
	Norm Norm
	// Bound is the norm bound: the maximum absolute error for NormInfinity,
	// or the maximum mean squared error for NormL2. Must be > 0.
	Bound float64
}

// ErrInvalidInput is returned for malformed data or options.
var ErrInvalidInput = errors.New("mgard: invalid input")

// ErrCorrupt is returned by DecompressInto for unparsable streams.
var ErrCorrupt = errors.New("mgard: corrupt stream")

// ErrUnsupportedRank is returned for 1-D or 4-D inputs.
var ErrUnsupportedRank = errors.New("mgard: only 2-D and 3-D data are supported")

// Compress compresses the field under the options' norm bound.
func Compress[T grid.Float](data []T, shape grid.Dims, opts Options) ([]byte, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	nd := shape.NDims()
	if nd != 2 && nd != 3 {
		return nil, ErrUnsupportedRank
	}
	if !(opts.Bound > 0) || math.IsInf(opts.Bound, 0) || math.IsNaN(opts.Bound) {
		return nil, fmt.Errorf("%w: bound must be positive and finite, got %v", ErrInvalidInput, opts.Bound)
	}
	if opts.Norm != NormInfinity && opts.Norm != NormL2 {
		return nil, fmt.Errorf("%w: unknown norm %d", ErrInvalidInput, opts.Norm)
	}

	levels := numLevels(shape)
	step := coefficientBound(opts, levels)

	// Forward multilevel decomposition on a float64 working copy. The copy
	// and the codes are scratch of this call, every element of both written
	// before it is read, so they come from the pool: a search compresses the
	// same field once per candidate bound.
	work := pool.Get[float64](len(data))
	defer pool.Put(work)
	for i, v := range data {
		work[i] = float64(v)
	}
	forwardDecompose(work, shape, levels)

	// Quantize the multilevel coefficients: q.Quantize(c, 0) written out,
	// with 2e and the half-range hoisted. The prediction is 0, so the
	// residual is c itself and the reconstruction 2e·code; a coefficient
	// whose code is out of range, or whose reconstruction misses it by more
	// than e, is stored verbatim.
	q, err := quantize.NewWithIntervals(step, quantize.DefaultIntervals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	e, twoE, half := q.ErrorBound, 2*q.ErrorBound, float64(q.Intervals/2)
	codes := pool.Get[int32](len(work))
	defer pool.Put(codes)
	literals := make([]T, 0)
	for i, c := range work {
		r := math.Round(c / twoE)
		if r != r || r >= half || r < -half || math.Abs(twoE*r-c) > e {
			codes[i] = unpredictable
			literals = append(literals, T(c))
			continue
		}
		codes[i] = int32(r)
	}

	// The shared back end (internal/codestream): Huffman-coded codes, then
	// the literals, then the dictionary stage over both.
	body, dictFlag, err := codestream.Encode(codes, literals)
	if err != nil {
		return nil, fmt.Errorf("mgard: %w", err)
	}

	out := make([]byte, 0, fixedHeaderLen+4*nd+len(body))
	out = binary.LittleEndian.AppendUint32(out, stream.Magic(grid.ElemSize[T]()))
	out = append(out, byte(opts.Norm), dictFlag, byte(nd))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(step))
	out = grid.AppendShape(out, shape)
	return append(out, body...), nil
}

// fixedHeaderLen is the header size before the shape extents: magic (4),
// norm (1), dictionary flag (1), rank (1), quantisation step (8).
const fixedHeaderLen = 15

type header struct {
	elemSize int
	dictFlag byte
	step     float64
	shape    grid.Dims
}

// parseHeader reads the fixed fields and the preamble's shape, returning the
// body that follows them.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if h.elemSize, err = stream.Width(buf, fixedHeaderLen); err != nil {
		return h, nil, err
	}
	h.dictFlag = buf[5]
	h.step = math.Float64frombits(binary.LittleEndian.Uint64(buf[7:15]))
	if !(h.step > 0) {
		return h, nil, fmt.Errorf("%w: bad quantization step %v", ErrCorrupt, h.step)
	}
	h.shape, body, err = stream.Shape(buf, fixedHeaderLen, int(buf[6]))
	return h, body, err
}

// DecompressInto reconstructs the field of a stream produced by Compress
// into dst, which holds exactly the values of shape, the stream's shape. It
// writes every value of dst or returns an error; a stream it cannot decode
// is an error wrapping ErrCorrupt.
func DecompressInto[T grid.Float](dst []T, buf []byte, shape grid.Dims) error {
	h, body, err := parseHeader(buf)
	if err != nil {
		return err
	}
	if err := grid.Expect(&stream, dst, h.elemSize, h.shape, shape); err != nil {
		return err
	}
	limit := codestream.MaxBody(len(dst), h.elemSize, quantize.DefaultIntervals+1, 0)
	_, codes, literals, err := codestream.Decode[T](body, h.dictFlag, limit, 0)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(codes) != len(dst) {
		return fmt.Errorf("%w: code count %d does not match shape %v", ErrCorrupt, len(codes), h.shape)
	}

	q, err := quantize.NewWithIntervals(h.step, quantize.DefaultIntervals)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// A float64 field is reconstructed in dst itself. A float32 one needs a
	// float64 working copy, not pooled: a borrowed field-sized buffer
	// outlives the call in the free list, and the series-reuse benchmark's
	// next large allocation (szx on a 16 MiB float64 field) ran 12 % slower
	// for it, with no gain here.
	work, inPlace := any(dst).([]float64)
	if !inPlace {
		work = make([]float64, len(codes))
	}
	twoE := 2 * q.ErrorBound
	litPos := 0
	for i, code := range codes {
		if code == unpredictable {
			if litPos >= len(literals) {
				return fmt.Errorf("%w: literal stream exhausted", ErrCorrupt)
			}
			work[i] = float64(literals[litPos])
			litPos++
			continue
		}
		work[i] = twoE * float64(code) // q.Dequantize(0, code): 0 + 2e·code, never −0
	}

	inverseReconstruct(work, h.shape, numLevels(h.shape))
	if !inPlace {
		for i, v := range work {
			dst[i] = T(v)
		}
	}
	return nil
}

// numLevels returns the number of dyadic refinement levels for the shape:
// enough that the coarsest grid has at most two nodes along the longest
// dimension.
func numLevels(shape grid.Dims) int {
	maxExtent := 0
	for _, d := range shape {
		if d > maxExtent {
			maxExtent = d
		}
	}
	levels := 0
	for (1 << (levels + 1)) < maxExtent {
		levels++
	}
	if levels < 1 {
		levels = 1
	}
	return levels
}

// coefficientBound converts the user-facing norm bound into the per-
// coefficient quantization bound. For the infinity norm, reconstruction
// errors accumulate along at most levels+1 hierarchy steps (a detail node's
// error is its own quantization error plus the interpolated error of its
// coarser parents, whose interpolation weights sum to one), so dividing the
// bound by levels+1 bounds the float64 reconstruction error; the final
// float32 cast can at most double the pointwise error (the original is a
// float32, so rounding the float64 reconstruction to the nearest float32
// moves it by no more than its distance to the original), which the extra
// factor of one half absorbs. For the L2 (MSE) norm, quantization errors
// behave like uniform noise of variance step²/3 amplified by the same
// hierarchy depth, so the step is derived from the MSE budget accordingly.
func coefficientBound(opts Options, levels int) float64 {
	depth := float64(levels + 1)
	switch opts.Norm {
	case NormL2:
		return 0.5 * math.Sqrt(3*opts.Bound) / depth
	default:
		return 0.5 * opts.Bound / depth
	}
}

// forwardDecompose converts grid values into hierarchical-surplus
// coefficients in place, processing levels from fine to coarse.
func forwardDecompose(work []float64, shape grid.Dims, levels int) {
	for l := 0; l < levels; l++ {
		walkLevel(work, shape, 1<<l, false)
	}
}

// inverseReconstruct converts hierarchical-surplus coefficients back into
// grid values in place, processing levels from coarse to fine.
func inverseReconstruct(work []float64, shape grid.Dims, levels int) {
	for l := levels - 1; l >= 0; l-- {
		walkLevel(work, shape, 1<<l, true)
	}
}

// tap is one node coordinate c = j·s of one axis at the level with stride s:
// the node's own offset along the axis, whether c is an odd multiple of s,
// and the coarse (stride-2s) neighbours the interpolation reads along the
// axis — offsets and weights. Along an axis where c is an even multiple of
// s the neighbour is the node's own coordinate, weight 1; where it is odd,
// c−s and c+s, weight 1/2 each, or c−s alone, weight 1, when c+s falls
// outside the grid.
type tap struct {
	at  int
	odd bool
	n   int
	off [2]int
	w   [2]float64
}

// axisTaps returns the taps of every node coordinate along an axis of the
// given extent and stride, at the level with stride s.
func axisTaps(extent, stride, s int) []tap {
	taps := make([]tap, (extent-1)/s+1)
	for j := range taps {
		c := j * s
		t := tap{at: c * stride, odd: j%2 == 1, n: 1, off: [2]int{c * stride}, w: [2]float64{1}}
		if t.odd {
			t.off[0] = (c - s) * stride
			if c+s < extent {
				t.n, t.off[1], t.w = 2, (c+s)*stride, [2]float64{0.5, 0.5}
			}
		}
		taps[j] = t
	}
	return taps
}

// Bit-compatibility contract of the level walk: a detail node is the
// multilinear interpolation of its coarse neighbours, summed from zero in
// a-major, b, c tap order (slowest axis first), each term the product of
// the three axes' weights and the neighbour's value, and the sum is then
// subtracted from the node (node − sum) or added back (sum + node). The row
// kernels keep that expression term for term. The weights are 1 and 1/2,
// so every product of them is a power of two and exact in any order:
// multiplying the slow two first, once per row, and the fast axis's weight
// in after gives the same bits as the per-node product. The sum still
// starts from zero, so a lone −0 term still sums to +0.
//
// Where two NaNs meet in one addition, the result is the first operand's
// NaN (SSE2's rule, which the generic per-node walk compiled to on amd64),
// and a NaN's sign and payload reach the stream as a literal. A compiler
// may commute a float addition's operands, so the kernels do not rely on
// the order it picks: a node whose result is NaN is recomputed by exact,
// which applies that rule explicitly. A result that is not NaN met no NaN,
// and then the order of the operands cannot show. TestWalkMatchesReference
// holds the generic walk these kernels replace and requires the same bits.

// rowTaps is the slow two axes' part of one row's interpolation: for each
// (a, b) tap pair, in a-major order, the row it reads, the product of the
// two weights, and that product halved (the weight of each of an odd
// fast-axis node's two neighbours).
type rowTaps struct {
	n           int
	r           [4][]float64
	whole, half [4]float64
}

// walkLevel visits every detail node of the level with stride s — a grid
// node whose coordinates are all multiples of s, at least one of them odd —
// and subtracts from it (forward) or adds to it (inverse) the multilinear
// interpolation of its coarse neighbours. A detail node reads only
// stride-2s nodes, which this level never writes, so the order of the
// visits does not matter; the caller arranges the levels so the coarse
// nodes hold original values when decomposing and reconstructed ones when
// reconstructing. The walk runs one row of the fast axis at a time: a row
// whose two slow coordinates are both even multiples of s holds detail
// nodes at odd x only, any other row at every x. A 2-D field walks as 3-D
// with a slow axis of extent 1: its one tap has weight 1, and 1·wb = wb.
func walkLevel(work []float64, shape grid.Dims, s int, inverse bool) {
	ext, stride := [3]int{1, 1, 1}, [3]int{}
	copy(ext[3-len(shape):], shape)
	copy(stride[3-len(shape):], shape.Strides())
	nx := ext[2]
	taps0, taps1 := axisTaps(ext[0], stride[0], s), axisTaps(ext[1], stride[1], s)
	for _, ta := range taps0 {
		for _, tb := range taps1 {
			var p rowTaps
			for a := 0; a < ta.n; a++ {
				for b := 0; b < tb.n; b++ {
					w, base := ta.w[a]*tb.w[b], ta.off[a]+tb.off[b]
					p.r[p.n], p.whole[p.n], p.half[p.n] = work[base:base+nx], w, w*0.5
					p.n++
				}
			}
			at := ta.at + tb.at
			p.walkRow(work[at:at+nx], s, ta.odd || tb.odd, inverse)
		}
	}
}

// walkRow updates the detail nodes of one row from the rows p names: every
// node when evens is set, the odd multiples of s only otherwise. An even x
// reads x in each row, weight p.whole; an odd x reads x−s and x+s, weight
// p.half each, or x−s alone, weight p.whole, when x+s falls outside the
// row. Each slow axis has one tap or two, so a row has 1, 2 or 4 tap
// pairs, and each loop is written out for each count.
func (p *rowTaps) walkRow(row []float64, s int, evens, inverse bool) {
	nx := len(row)
	r0, r1, r2, r3 := p.r[0], p.r[1], p.r[2], p.r[3]
	w0, w1, w2, w3 := p.whole[0], p.whole[1], p.whole[2], p.whole[3]
	h0, h1, h2, h3 := p.half[0], p.half[1], p.half[2], p.half[3]
	if evens {
		switch p.n {
		case 1:
			for x := 0; x < nx; x += 2 * s {
				sum := 0.0
				sum += w0 * r0[x]
				if !apply(row, x, sum, inverse) {
					p.exact(row, x, x, -1, inverse)
				}
			}
		case 2:
			for x := 0; x < nx; x += 2 * s {
				sum := 0.0
				sum += w0 * r0[x]
				sum += w1 * r1[x]
				if !apply(row, x, sum, inverse) {
					p.exact(row, x, x, -1, inverse)
				}
			}
		default:
			for x := 0; x < nx; x += 2 * s {
				sum := 0.0
				sum += w0 * r0[x]
				sum += w1 * r1[x]
				sum += w2 * r2[x]
				sum += w3 * r3[x]
				if !apply(row, x, sum, inverse) {
					p.exact(row, x, x, -1, inverse)
				}
			}
		}
	}
	// The odd nodes with both neighbours inside the row, then the last odd
	// node when its right neighbour is not.
	d := s
	switch p.n {
	case 1:
		for ; d+s < nx; d += 2 * s {
			sum := 0.0
			sum += h0 * r0[d-s]
			sum += h0 * r0[d+s]
			if !apply(row, d, sum, inverse) {
				p.exact(row, d, d-s, d+s, inverse)
			}
		}
	case 2:
		for ; d+s < nx; d += 2 * s {
			sum := 0.0
			sum += h0 * r0[d-s]
			sum += h0 * r0[d+s]
			sum += h1 * r1[d-s]
			sum += h1 * r1[d+s]
			if !apply(row, d, sum, inverse) {
				p.exact(row, d, d-s, d+s, inverse)
			}
		}
	default:
		for ; d+s < nx; d += 2 * s {
			sum := 0.0
			sum += h0 * r0[d-s]
			sum += h0 * r0[d+s]
			sum += h1 * r1[d-s]
			sum += h1 * r1[d+s]
			sum += h2 * r2[d-s]
			sum += h2 * r2[d+s]
			sum += h3 * r3[d-s]
			sum += h3 * r3[d+s]
			if !apply(row, d, sum, inverse) {
				p.exact(row, d, d-s, d+s, inverse)
			}
		}
	}
	if d < nx {
		sum := 0.0
		for k := 0; k < p.n; k++ {
			sum += p.whole[k] * p.r[k][d-s]
		}
		if !apply(row, d, sum, inverse) {
			p.exact(row, d, d-s, -1, inverse)
		}
	}
}

// apply subtracts the interpolation from node x (forward) or adds it back
// (inverse). It leaves the node alone and reports false when the result is
// NaN, for exact to redo.
func apply(row []float64, x int, sum float64, inverse bool) bool {
	var v float64
	if inverse {
		v = sum + row[x]
	} else {
		v = row[x] - sum
	}
	if v != v {
		return false
	}
	row[x] = v
	return true
}

// exact updates node x of row from column lo of every row p names and,
// when hi ≥ 0, column hi, with each NaN meeting another resolved as the
// contract above says. A node with one neighbour column takes the whole
// weight, one with two the half weight for each.
func (p *rowTaps) exact(row []float64, x, lo, hi int, inverse bool) {
	sum := 0.0
	for k := 0; k < p.n; k++ {
		if hi < 0 {
			sum = firstNaN(sum, p.whole[k]*p.r[k][lo], false)
			continue
		}
		sum = firstNaN(sum, p.half[k]*p.r[k][lo], false)
		sum = firstNaN(sum, p.half[k]*p.r[k][hi], false)
	}
	if inverse {
		row[x] = firstNaN(sum, row[x], false)
	} else {
		row[x] = firstNaN(row[x], sum, true)
	}
}

// firstNaN is a + b, or a − b when sub is set, except that a NaN operand
// decides the result: a's when a is NaN, else b's, quietened as an IEEE 754
// operation quietens a signalling NaN.
func firstNaN(a, b float64, sub bool) float64 {
	switch {
	case a != a:
		return math.Float64frombits(math.Float64bits(a) | 1<<51)
	case b != b:
		return math.Float64frombits(math.Float64bits(b) | 1<<51)
	case sub:
		return a - b
	}
	return a + b
}
