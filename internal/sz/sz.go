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
	"fraz/internal/quantize"
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
	// 0 selects the SZ default of 65536.
	Intervals int
}

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
		out.Intervals = quantize.DefaultIntervals
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
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	if shape.NDims() > 3 {
		return nil, fmt.Errorf("%w: rank %d (want 1..3)", ErrInvalidInput, shape.NDims())
	}
	o := opts.withDefaults(shape.NDims())
	q, err := quantize.NewWithIntervals(o.ErrorBound, o.Intervals)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}

	// recon and codes are compression-internal scratch: recon is only read at
	// offsets already reconstructed (block-major row-major order guarantees
	// every Lorenzo neighbour is written first), and exactly one code is
	// emitted per point, so the pooled capacity is never exceeded.
	recon := pool.Get[T](len(data))
	defer pool.Put(recon)
	codes := pool.Get[int32](len(data))[:0]
	defer pool.Put(codes)
	blocks := shape.Blocks(o.BlockSize)
	enc := &encoder[T]{
		q:        q,
		bound:    o.ErrorBound,
		data:     data,
		recon:    recon,
		codes:    codes,
		literals: make([]T, 0),
	}
	blockMeta := make([]byte, 0, len(blocks)*17)

	strides := shape.Strides()
	for _, gb := range blocks {
		b := padBlock(gb, strides)
		var coeffs [4]float64
		useRegress := false
		if gb.Len() >= 8 {
			coeffs = fitRegression(data, &b)
			useRegress = regressionBeatsLorenzo(data, &b, coeffs)
		}
		if useRegress {
			blockMeta = append(blockMeta, predRegress)
			for _, c := range coeffs {
				blockMeta = binary.LittleEndian.AppendUint64(blockMeta, math.Float64bits(c))
			}
			enc.regressBlock(&b, coeffs)
		} else {
			blockMeta = append(blockMeta, predLorenzo)
			enc.lorenzoBlock(&b)
		}
	}
	// The shared back end (internal/codestream): the block records go first
	// as one chunk, then the Huffman-coded codes and the literals, and the
	// dictionary stage runs over all of it.
	body, dictFlag, err := codestream.Encode(enc.codes, enc.literals, blockMeta)
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

// parseHeader reads the fixed fields and the preamble's shape, returning the
// body that follows them.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if h.elemSize, err = stream.Width(buf, fixedHeaderLen); err != nil {
		return h, nil, err
	}
	h.dictFlag = buf[4]
	h.errorBound = math.Float64frombits(binary.LittleEndian.Uint64(buf[6:14]))
	h.blockSize = int(binary.LittleEndian.Uint32(buf[14:18]))
	h.intervals = int(binary.LittleEndian.Uint32(buf[18:22]))
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

	q, err := quantize.NewWithIntervals(h.errorBound, h.intervals)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	dec := &decoder[T]{q: q, codes: codes, literals: literals, recon: recon}
	strides := h.shape.Strides()
	blocks := h.shape.Blocks(h.blockSize)

	metaPos := 0
	for _, gb := range blocks {
		b := padBlock(gb, strides)
		if metaPos >= len(blockMeta) {
			return fmt.Errorf("%w: truncated block metadata", ErrCorrupt)
		}
		sel := blockMeta[metaPos]
		metaPos++
		if sel == predRegress {
			if metaPos+32 > len(blockMeta) {
				return fmt.Errorf("%w: truncated regression coefficients", ErrCorrupt)
			}
			var coeffs [4]float64
			for i := 0; i < 4; i++ {
				coeffs[i] = math.Float64frombits(binary.LittleEndian.Uint64(blockMeta[metaPos : metaPos+8]))
				metaPos += 8
			}
			dec.regressBlock(&b, coeffs)
		} else if sel == predLorenzo {
			dec.lorenzoBlock(&b)
		} else {
			return fmt.Errorf("%w: unknown predictor selector %d", ErrCorrupt, sel)
		}
		if dec.err != nil {
			return dec.err
		}
	}
	return nil
}

// fitRegression fits value ~ c0 + c1·i0 + c2·i1 + c3·i2 over the block's
// original data by least squares (normal equations on a small, well-
// conditioned system), i0 being the slowest block-local coordinate. A
// coordinate the rank lacks has a zero column and gets coefficient 0.
//
// AᵀA holds sums of products of block-local coordinates: integers, every
// partial sum of which float64 holds exactly while the block's Σi² stays
// under 2^53 (any edge up to 1,900 at rank 3; the default is 6), so it is
// computed from the extents in closed form. Aᵀb is summed in row-major
// point order, one sum per column, and a column the rank lacks keeps its
// 0·v products: 0·Inf is NaN, so a non-finite value poisons that column as
// it always has.
func fitRegression[T grid.Float](data []T, b *block) [4]float64 {
	n := b.size[0] * b.size[1] * b.size[2]
	var ata [4][4]float64
	ata[0][0] = float64(n)
	var sum [3]int // Σi over one axis of the block, per real axis
	for j := 0; j < b.nd; j++ {
		e := b.size[3-b.nd+j]
		sum[j] = e * (e - 1) / 2
		ata[0][j+1] = float64(sum[j] * (n / e))
		ata[j+1][0] = ata[0][j+1]
		ata[j+1][j+1] = float64((e - 1) * e * (2*e - 1) / 6 * (n / e))
		for k := 0; k < j; k++ {
			ata[k+1][j+1] = float64(sum[k] * sum[j] * (n / (e * b.size[3-b.nd+k])))
			ata[j+1][k+1] = ata[k+1][j+1]
		}
	}
	// Aᵀb by padded axis: Σv, then Σ l·v for each of the three coordinates.
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
				s[0] += f0 * fv
				s[1] += f1 * fv
				s[2] += float64(i) * fv
			}
		}
	}
	// A real axis j feeds column j+1; a padded axis, always at coordinate 0,
	// holds the 0·v sums of a column past the rank.
	atb := [4]float64{s0}
	o := 3 - b.nd
	for q := range s {
		if q >= o {
			atb[q-o+1] = s[q]
		} else {
			atb[b.nd+1+q] = s[q]
		}
	}
	return solve4(ata, atb)
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
				m[r][c] -= f * m[col][c]
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

// regressionBeatsLorenzo estimates, on the original (not reconstructed)
// data, whether the regression predictor yields a lower absolute residual
// than the Lorenzo predictor over the block, mirroring SZ 2.x's sampling-
// based predictor selection. Both residual sums run in row-major point
// order, each prediction summed as the encoder sums it.
func regressionBeatsLorenzo[T grid.Float](data []T, b *block, coeffs [4]float64) bool {
	var errRegress, errLorenzo float64
	ci := coeffs[b.nd]
	for l0 := 0; l0 < b.size[0]; l0++ {
		for l1 := 0; l1 < b.size[1]; l1++ {
			base, z, y := b.row(l0, l1)
			pred := b.regressRow(&coeffs, l0, l1)
			for i, v := range data[base : base+b.size[2]] {
				errRegress += math.Abs(float64(v) - (pred + ci*float64(i)))
			}
			errLorenzo = lorenzoResidualRow(errLorenzo, data, base, b.size[2], z, y, b.start[2], b.stride[0], b.stride[1])
		}
	}
	return errRegress < errLorenzo
}
