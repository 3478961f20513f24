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

	// Quantize the multilevel coefficients.
	q, err := quantize.NewWithIntervals(step, quantize.DefaultIntervals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	codes := pool.Get[int32](len(work))
	defer pool.Put(codes)
	literals := make([]T, 0)
	for i, c := range work {
		code, recon, ok := q.Quantize(c, 0)
		if !ok {
			codes[i] = unpredictable
			literals = append(literals, T(c))
			continue
		}
		codes[i] = code
		work[i] = recon
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
	// Not pooled: a borrowed field-sized buffer outlives the call in the free
	// list, and the series-reuse benchmark's next large allocation (szx on a
	// 16 MiB float64 field) ran 12 % slower for it, with no gain here.
	work := make([]float64, len(codes))
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
		work[i] = q.Dequantize(0, code)
	}

	inverseReconstruct(work, h.shape, numLevels(h.shape))
	for i, v := range work {
		dst[i] = T(v)
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

// walkLevel visits every detail node of the level with stride s — a grid
// node whose coordinates are all multiples of s, at least one of them odd —
// and subtracts from it (forward) or adds to it (inverse) the multilinear
// interpolation of its coarse neighbours: the product of one tap per axis,
// weights multiplied slowest axis first, summed from zero in tap order. A
// detail node reads only stride-2s nodes, which this level never writes,
// so the order of the visits does not matter; the caller arranges the
// levels so the coarse nodes hold original values when decomposing and
// reconstructed ones when reconstructing. A 2-D field walks as 3-D with a
// slow axis of extent 1: its one tap has weight 1, and (1·wb)·wc = wb·wc.
func walkLevel(work []float64, shape grid.Dims, s int, inverse bool) {
	ext, stride := [3]int{1, 1, 1}, [3]int{}
	copy(ext[3-len(shape):], shape)
	copy(stride[3-len(shape):], shape.Strides())
	taps0, taps1, taps2 := axisTaps(ext[0], stride[0], s), axisTaps(ext[1], stride[1], s), axisTaps(ext[2], stride[2], s)
	for _, ta := range taps0 {
		for _, tb := range taps1 {
			for _, tc := range taps2 {
				if !(ta.odd || tb.odd || tc.odd) {
					continue
				}
				var sum float64
				for a := 0; a < ta.n; a++ {
					for b := 0; b < tb.n; b++ {
						wab := ta.w[a] * tb.w[b]
						base := ta.off[a] + tb.off[b]
						for c := 0; c < tc.n; c++ {
							sum += wab * tc.w[c] * work[base+tc.off[c]]
						}
					}
				}
				if off := ta.at + tb.at + tc.at; inverse {
					work[off] += sum
				} else {
					work[off] -= sum
				}
			}
		}
	}
}
