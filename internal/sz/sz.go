// Package sz implements a pure-Go error-bounded lossy compressor modelled on
// the SZ compressor (Di & Cappello, IPDPS'16; Tao et al., IPDPS'17; Liang et
// al., Big Data'18) that the paper uses as its primary back end.
//
// The pipeline mirrors SZ's four stages:
//
//  1. blockwise data prediction with a hybrid predictor: a one-layer Lorenzo
//     predictor (operating on previously reconstructed values) or a
//     block-local linear regression, selected per block;
//  2. linear-scaling quantization of the prediction residual under an
//     absolute error bound;
//  3. customized Huffman encoding of the quantization codes;
//  4. a dictionary-encoder stage (DEFLATE via compress/flate, standing in
//     for Gzip/Zstd) over the Huffman bytes and literals.
//
// Because the Lorenzo predictor consumes *reconstructed* values and the
// dictionary stage operates on the Huffman output, the achieved compression
// ratio is not a monotonic function of the error bound — the behaviour that
// motivates FRaZ's global (rather than bisection) search (paper Fig. 3).
package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fraz/internal/codestream"
	"fraz/internal/grid"
	"fraz/internal/pool"
)

// magic32 and magic64 identify SZ-Go compressed streams of float32 and
// float64 data respectively. The element width is part of the magic, so a
// stream can never be reinterpreted at the wrong precision — and float32
// streams keep the exact bytes earlier builds wrote.
const (
	magic32 = 0x535A4731 // "SZG1"
	magic64 = 0x535A4732 // "SZG2"
)

// stream is sz's preamble (internal/grid): its magics and ranks 1 to 3.
var stream = grid.Stream{Magic32: magic32, Magic64: magic64, MinRank: 1, MaxRank: 3, Corrupt: ErrCorrupt}

// unpredictable is the quantization-code marker for values stored verbatim.
const unpredictable = int32(1 << 30)

// Predictor selectors stored per block.
const (
	predLorenzo = 0
	predRegress = 1
)

// Options configures compression.
type Options struct {
	// ErrorBound is the absolute error bound (must be > 0).
	ErrorBound float64
	// BlockSize is the block edge length; 0 selects the SZ default
	// (6 for 3-D, 12 for 2-D, 128 for 1-D).
	BlockSize int
	// Intervals is the number of linear-scaling quantization intervals;
	// 0 selects the SZ default, defaultIntervals.
	Intervals int
}

// defaultIntervals is SZ's default number of quantisation intervals: codes
// lie in [−32768, 32767], a signed 17-bit range around zero.
const defaultIntervals = 65536

func (o *Options) withDefaults(ndims int) Options {
	out := *o
	if out.BlockSize == 0 {
		switch ndims {
		case 1:
			out.BlockSize = 128
		case 2:
			out.BlockSize = 12
		default:
			out.BlockSize = 6
		}
	}
	if out.Intervals == 0 {
		out.Intervals = defaultIntervals
	}
	return out
}

// ErrInvalidInput is returned when the data or options are malformed.
var ErrInvalidInput = errors.New("sz: invalid input")

// ErrCorrupt is returned by DecompressInto for unparsable streams.
var ErrCorrupt = errors.New("sz: corrupt stream")

// Compress compresses data of the given shape under the options' absolute
// error bound and returns the compressed byte stream, which is
// self-describing.
func Compress[T grid.Float](data []T, shape grid.Dims, opts Options) ([]byte, error) {
	return CompressAndReconstruct(data, shape, opts, nil)
}

// CompressAndReconstruct is Compress that also writes into recon, unless it
// is nil, the field DecompressInto of the returned stream writes, bit for
// bit. The encoder builds that field anyway — the Lorenzo predictor reads
// reconstructed neighbours — so a caller that measures the round trip's
// quality can skip the decode. recon holds len(data) values and is the
// caller's; with nil the encoder borrows its scratch from the pool.
func CompressAndReconstruct[T grid.Float](data []T, shape grid.Dims, opts Options, recon []T) ([]byte, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	if recon != nil && len(recon) != len(data) {
		return nil, fmt.Errorf("%w: reconstruction length %d does not match shape %v", ErrInvalidInput, len(recon), shape)
	}
	if shape.NDims() > 3 {
		return nil, fmt.Errorf("%w: rank %d (want 1..3)", ErrInvalidInput, shape.NDims())
	}
	if opts.BlockSize < 0 || uint64(opts.BlockSize) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: block size %d (want 1..%d, or 0 for the default)", ErrInvalidInput, opts.BlockSize, uint32(math.MaxUint32))
	}
	if int64(opts.Intervals) > maxIntervals {
		return nil, fmt.Errorf("%w: %d intervals (want at most %d)", ErrInvalidInput, opts.Intervals, maxIntervals)
	}
	o := opts.withDefaults(shape.NDims())
	if err := checkQuantiser(o.ErrorBound, o.Intervals); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}

	// recon, when the caller has none, and codes are compression-internal
	// scratch: recon is only read at offsets already reconstructed (the
	// walks visit every Lorenzo neighbour first), and every code is written
	// once, at its point's index.
	if recon == nil {
		scratch := pool.Get[T](len(data))
		defer pool.Put(scratch)
		recon = scratch
	}
	codes := pool.Get[int32](len(data))
	defer pool.Put(codes)
	literals, blockMeta := encode(data, shape, o, recon, codes)
	// The shared back end (internal/codestream): the block records go first
	// as one chunk, then the Huffman-coded codes and the literals, and the
	// dictionary stage runs over all of it.
	body, dictFlag, err := codestream.Encode(codes, literals, blockMeta)
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}

	out := make([]byte, 0, fixedHeaderLen+4*shape.NDims()+len(body))
	out = binary.LittleEndian.AppendUint32(out, stream.Magic(grid.ElemSize[T]()))
	out = append(out, dictFlag, byte(shape.NDims()))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(o.ErrorBound))
	out = binary.LittleEndian.AppendUint32(out, uint32(o.BlockSize))
	out = binary.LittleEndian.AppendUint32(out, uint32(o.Intervals))
	out = grid.AppendShape(out, shape)
	return append(out, body...), nil
}

// maxIntervals is the most quantisation intervals Compress accepts: every
// code then lies in [−2^30, 2^30), exact in an int32 and never the
// unpredictable marker.
const maxIntervals int64 = 1 << 31

// checkQuantiser refuses an error bound that is not positive and finite,
// and fewer than 4 intervals. Compress checks its options with it, and
// parseHeader a stream's header before the body is touched.
func checkQuantiser(bound float64, intervals int) error {
	if !(bound > 0) || math.IsInf(bound, 1) {
		return fmt.Errorf("error bound must be positive and finite, got %v", bound)
	}
	if intervals < 4 {
		return fmt.Errorf("intervals must be >= 4, got %d", intervals)
	}
	return nil
}

// encode predicts and quantises data, block by block, into codes (one per
// value, in stream order) and recon (the values the decoder will
// reconstruct), and returns the literals and the per-block predictor
// records. o carries validated options with defaults applied.
func encode[T grid.Float](data []T, shape grid.Dims, o Options, recon []T, codes []int32) (literals []T, blockMeta []byte) {
	blocks := shape.Blocks(o.BlockSize)
	enc := encoder[T]{
		bound: o.ErrorBound,
		twoE:  2 * o.ErrorBound,
		qlo:   -float64(o.Intervals/2) - 0.5,
		qhi:   float64(o.Intervals/2) - 0.5,
		data:  data,
		recon: recon,
		codes: codes,
	}
	blockMeta = make([]byte, 0, len(blocks)*17)
	zeros := make([]T, min(o.BlockSize, shape[len(shape)-1]))
	strides := shape.Strides()
	k := 0
	for _, gb := range blocks {
		b := padBlock(gb, strides)
		var coeffs [4]float64
		useRegress := false
		if gb.Len() >= 8 {
			coeffs, useRegress = selectPredictor(data, zeros, &b)
		}
		if useRegress {
			blockMeta = append(blockMeta, predRegress)
			for _, c := range coeffs {
				blockMeta = binary.LittleEndian.AppendUint64(blockMeta, math.Float64bits(c))
			}
			enc.regressBlock(&b, &coeffs, k)
		} else {
			blockMeta = append(blockMeta, predLorenzo)
			enc.lorenzoBlock(&b, k)
		}
		k += gb.Len()
	}
	return gatherLiterals(data, codes, blocks, strides), blockMeta
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
	return decompressBody(dst, h, body)
}

type header struct {
	dictFlag   byte
	elemSize   int
	errorBound float64
	blockSize  int
	intervals  int
	shape      grid.Dims
}

// fixedHeaderLen is the header size before the shape extents: magic (4),
// dictionary flag (1), rank (1), error bound (8), block size (4), intervals
// (4).
const fixedHeaderLen = 22

// maxBlockRecord is the most one block adds to the block-record chunk: the
// predictor selector and four float64 regression coefficients.
const maxBlockRecord = 33

// parseHeader reads and checks the fixed fields and the preamble's shape,
// returning the body that follows them.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if h.elemSize, err = stream.Width(buf, fixedHeaderLen); err != nil {
		return h, nil, err
	}
	h.dictFlag = buf[4]
	h.errorBound = math.Float64frombits(binary.LittleEndian.Uint64(buf[6:14]))
	h.blockSize = int(binary.LittleEndian.Uint32(buf[14:18]))
	h.intervals = int(binary.LittleEndian.Uint32(buf[18:22]))
	if h.blockSize == 0 {
		return h, nil, fmt.Errorf("%w: block size 0", ErrCorrupt)
	}
	if err := checkQuantiser(h.errorBound, h.intervals); err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	h.shape, body, err = stream.Shape(buf, fixedHeaderLen, int(buf[5]))
	return h, body, err
}

// decompressBody decodes the body into recon, every value of which the
// block walk writes before it reads it as a Lorenzo neighbour — the order
// Compress relies on for its pooled scratch.
func decompressBody[T grid.Float](recon []T, h header, body []byte) error {
	n := h.shape.Len()
	// A block holds at least one value, so the record chunk (its length,
	// then the records) adds at most maxBlockRecord bytes per value.
	limit := 4 + codestream.MaxBody(n, h.elemSize, h.intervals+1, maxBlockRecord)
	head, codes, literals, err := codestream.Decode[T](body, h.dictFlag, limit, 1)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	blockMeta := head[0]
	if len(codes) != n {
		return fmt.Errorf("%w: code count %d does not match shape %v", ErrCorrupt, len(codes), h.shape)
	}
	return decode(recon, h, codes, literals, blockMeta)
}

// decode is encode's inverse: it reconstructs every value of recon from the
// codes, the literals and the block records, or returns an error wrapping
// ErrCorrupt. h carries the shape, the block size and the error bound.
func decode[T grid.Float](recon []T, h header, codes []int32, literals []T, blockMeta []byte) error {
	dec := decoder[T]{twoE: 2 * h.errorBound, codes: codes, recon: recon}
	strides := h.shape.Strides()
	blocks := h.shape.Blocks(h.blockSize)
	if !placeLiterals(recon, literals, codes, blocks, strides) {
		return fmt.Errorf("%w: literal stream exhausted", ErrCorrupt)
	}
	k := 0
	for _, gb := range blocks {
		b := padBlock(gb, strides)
		if len(blockMeta) == 0 {
			return fmt.Errorf("%w: truncated block metadata", ErrCorrupt)
		}
		sel := blockMeta[0]
		blockMeta = blockMeta[1:]
		var coeffs [4]float64
		switch sel {
		case predRegress:
			if len(blockMeta) < 32 {
				return fmt.Errorf("%w: truncated regression coefficients", ErrCorrupt)
			}
			for i := range coeffs {
				coeffs[i] = math.Float64frombits(binary.LittleEndian.Uint64(blockMeta[8*i:]))
			}
			blockMeta = blockMeta[32:]
		case predLorenzo:
		default:
			return fmt.Errorf("%w: unknown predictor selector %d", ErrCorrupt, sel)
		}
		if sel == predRegress {
			dec.regressBlock(&b, &coeffs, k)
		} else {
			dec.lorenzoBlock(&b, k)
		}
		k += gb.Len()
	}
	return nil
}

// solve4 solves a 4x4 symmetric positive semi-definite system by Gaussian
// elimination with partial pivoting. Singular directions get a zero
// coefficient.
func solve4(a [4][4]float64, b [4]float64) [4]float64 {
	const n = 4
	// Augment.
	var m [n][n + 1]float64
	for i := 0; i < n; i++ {
		copy(m[i][:n], a[i][:])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// pivot
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		m[col], m[p] = m[p], m[col]
		if math.Abs(m[col][col]) < 1e-12 {
			continue
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= float64(f * m[col][c])
			}
		}
	}
	var x [4]float64
	for i := 0; i < n; i++ {
		if math.Abs(m[i][i]) >= 1e-12 {
			x[i] = m[i][n] / m[i][i]
		}
	}
	return x
}
