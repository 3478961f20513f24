// Package frsz implements a true fixed-rate lossy compressor in the style
// of FRSZ (Underwood's frsz: per-block max-exponent scaling to fixed-point
// integers, then keep exactly N bits per value). Where the error-bounded
// codecs (SZ, SZx, ZFP-accuracy, MGARD) are parameterised by an error bound
// — so reaching a storage target means *searching* the bound space — frsz
// is parameterised by the storage itself: every value costs exactly
// BitsPerValue bits, so the compressed size (and therefore the compression
// ratio) is a closed-form function of the shape and the parameter. Tuning
// to a fixed ratio degenerates from an iterative search into O(1)
// arithmetic, which is what the direct-satisfaction fast path in
// internal/core exploits.
//
// The codec cuts the flat value stream into fixed-size blocks of
// consecutive values. Each block records the binary exponent e of its
// largest magnitude (maxabs = f·2^e with f in [0.5, 1), via math.Frexp);
// every value in the block is scaled by 2^(N−1−e), rounded to the nearest
// integer, clamped into the N-bit two's-complement range
// [−2^(N−1), 2^(N−1)−1], and bit-packed LSB-first through
// internal/bitstream. There is no per-block byte alignment: the whole body
// is one contiguous bitstream of exactly N bits per value, so the rate
// promise is exact, not amortised. Decompression reverses the scaling:
// v̂ = q·2^(e−N+1).
//
// The codec is dtype-generic over float32 and float64 and shape-agnostic
// (no neighbour prediction, so any rank 1..4 compresses identically). Each
// direction is one function generic over the element type (kernel.go): a
// value is widened to float64 as it is read and narrowed as it is written,
// and everything between — scaling, rounding, clamping — is float64 and
// integer arithmetic that does not care which width it came from. The
// per-width facts (exponent window, largest finite value) are looked up
// once per call. Unlike szx the kernel never looks at IEEE-754 fields, so it
// needs neither a bit view nor unsafe; the one such question it has, whether
// an input is finite, is asked arithmetically.
//
// # Stream layout (all integers little-endian)
//
// The stream is self-describing; DecompressInto needs no side information
// beyond the caller's expected shape. The element width is part of the
// magic — FRZ1 marks float32 streams, FRZ2 float64 — so a stream can never
// be reinterpreted at the wrong precision:
//
//	offset  size      field
//	0       4         magic "FRZ1" (float32) or "FRZ2" (float64)
//	4       1         rank R (1..4)
//	5       1         bits per value N (1..8·W, W = element width)
//	6       4         block size in elements (uint32, >= 1)
//	10      4×R       shape extents, slowest dimension first (uint32 each)
//
// The body is sized entirely by the header (B = ceil(elements/blockSize)):
//
//	...     2×B       per-block binary exponent e (int16), in block order;
//	                  the sentinel −32768 marks an all-zero block
//	...     ⌈nN/8⌉    one contiguous bitstream: the N-bit two's-complement
//	                  code of every value, LSB-first, block order, no
//	                  per-block alignment; the final byte is zero-padded
//
// # Worst-case error
//
// Within a block of exponent e the quantisation step is Δ = 2^(e−N+1).
// Rounding contributes at most Δ/2; clamping at the top of the code range
// (values within half a step of +2^(N−1)·Δ) contributes at most another
// Δ/2, so the pointwise error is bounded by Δ = 2^(e−N+1). Since
// maxabs ≥ 2^(e−1), the error relative to the block's largest magnitude is
// at most 2^(2−N) — every extra bit per value halves it. The bound is per
// block: a block of small values quantises against its own (small)
// exponent, not the field's. Two documented edges: N large enough that Δ
// falls below the element type's ulp at 2^e makes the representation
// rounding (≤ one ulp) the dominant term, and a reconstruction that would
// overflow the element type (possible only when maxabs is within one
// quantisation step of the type's overflow threshold) clamps to
// ±MaxFloat32/±MaxFloat64.
//
// Unlike the error-bounded codecs, frsz rejects non-finite input: a NaN or
// ±Inf has no exponent to scale against, and silently flushing it to the
// code range would forge data. Callers with non-finite values need an
// error-bounded codec (szx stores such blocks bit-exactly).
package frsz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fraz/internal/grid"
)

// magic32 and magic64 identify frsz streams of float32 and float64 data.
const (
	magic32 = 0x315A5246 // "FRZ1" in little-endian byte order
	magic64 = 0x325A5246 // "FRZ2"
)

// DefaultBlockSize is the number of consecutive values per block. Blocks
// share one exponent, so smaller blocks track local amplitude better (lower
// error) at two bytes of exponent overhead each; 128 matches the SZx-style
// codec and keeps the exponent section below 2% of the stream at N >= 8.
const DefaultBlockSize = 128

// maxBlockSize bounds the block size a stream may declare; combined with
// the element count implied by the shape it keeps hostile headers from
// requesting absurd buffers.
const maxBlockSize = 1 << 24

// expZero is the per-block exponent sentinel for an all-zero block. Its
// codes are still present in the bitstream (the rate is fixed) but decode
// to exact zeros regardless of their content. expZeroBits is its
// two's-complement wire form.
const (
	expZero     = math.MinInt16
	expZeroBits = uint16(0x8000)
)

// Valid per-block exponent windows, from math.Frexp over each type's
// finite nonzero range: the smallest denormal yields the lower edge, the
// largest finite value the upper. Exponents outside the window (other than
// the expZero sentinel) cannot have been produced by Compress and mark the
// stream corrupt.
const (
	minExp32 = -148
	maxExp32 = 128
	minExp64 = -1073
	maxExp64 = 1024
)

// ErrInvalidInput is returned when the data or options are malformed,
// including non-finite input values.
var ErrInvalidInput = errors.New("frsz: invalid input")

// ErrCorrupt is returned by DecompressInto for unparsable streams.
var ErrCorrupt = errors.New("frsz: corrupt stream")

// stream is frsz's preamble (internal/grid): its magics and ranks 1 to 4.
var stream = grid.Stream{Magic32: magic32, Magic64: magic64, MinRank: 1, MaxRank: 4, Corrupt: ErrCorrupt}

// Options configures compression.
type Options struct {
	// BitsPerValue is the exact number of bits every value costs in the
	// stream body, 1..8·elemSize. It is the codec's only fidelity/size
	// knob: the compressed size is CompressedSize(len, rank, N, blockSize)
	// by construction.
	BitsPerValue int
	// BlockSize is the number of consecutive values per exponent block;
	// 0 selects DefaultBlockSize.
	BlockSize int
}

func (o Options) withDefaults(elemSize int) (Options, error) {
	if o.BitsPerValue < 1 || o.BitsPerValue > 8*elemSize {
		return o, fmt.Errorf("%w: bits per value %d (want 1..%d for %d-byte elements)", ErrInvalidInput, o.BitsPerValue, 8*elemSize, elemSize)
	}
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize < 1 || o.BlockSize > maxBlockSize {
		return o, fmt.Errorf("%w: block size %d (want 1..%d)", ErrInvalidInput, o.BlockSize, maxBlockSize)
	}
	return o, nil
}

// CompressedSize returns the exact stream size in bytes that Compress
// produces for the given element count, rank, bits per value, and block
// size (0 selects DefaultBlockSize). It is pure arithmetic — header, one
// int16 exponent per block, and ⌈elements·N/8⌉ body bytes — which is what
// lets a fixed-ratio target be inverted into a bits-per-value setting
// without running the codec.
func CompressedSize(elements, rank, bitsPerValue, blockSize int) int {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	nBlocks := (elements + blockSize - 1) / blockSize
	return fixedHeaderLen + 4*rank + 2*nBlocks + (elements*bitsPerValue+7)/8
}

// Compress compresses data of the given shape at exactly
// opts.BitsPerValue bits per value and returns the self-describing stream.
// Non-finite input values are rejected with ErrInvalidInput.
func Compress[T grid.Float](data []T, shape grid.Dims, opts Options) ([]byte, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	o, err := opts.withDefaults(grid.ElemSize[T]())
	if err != nil {
		return nil, err
	}
	return compress(data, shape, o)
}

// DecompressInto reconstructs the field of a stream produced by Compress
// into dst, which holds exactly the values of shape, the stream's shape. It
// writes every value of dst or returns an error; malformed input of any kind
// is an error wrapping ErrCorrupt, never a panic.
func DecompressInto[T grid.Float](dst []T, buf []byte, shape grid.Dims) error {
	h, body, err := parseHeader(buf)
	if err != nil {
		return err
	}
	if err := grid.Expect(&stream, dst, h.elemSize, h.shape, shape); err != nil {
		return err
	}
	return decompress(dst, h, body)
}

type header struct {
	elemSize  int
	bits      int
	blockSize int
	shape     grid.Dims
}

// fixedHeaderLen is the header size before the shape extents: magic (4),
// rank (1), bits per value (1), block size (4).
const fixedHeaderLen = 10

// parseHeader reads the fixed fields and the preamble's shape, returning the
// body that follows them, which must be exactly the size the header implies.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if h.elemSize, err = stream.Width(buf, fixedHeaderLen); err != nil {
		return h, nil, err
	}
	h.bits = int(buf[5])
	if h.bits < 1 || h.bits > 8*h.elemSize {
		return h, nil, fmt.Errorf("%w: %d bits per value (want 1..%d)", ErrCorrupt, h.bits, 8*h.elemSize)
	}
	h.blockSize = int(binary.LittleEndian.Uint32(buf[6:]))
	if h.blockSize < 1 || h.blockSize > maxBlockSize {
		return h, nil, fmt.Errorf("%w: block size %d (want 1..%d)", ErrCorrupt, h.blockSize, maxBlockSize)
	}
	if h.shape, body, err = stream.Shape(buf, fixedHeaderLen, int(buf[4])); err != nil {
		return h, nil, err
	}
	n := h.shape.Len()
	nBlocks := (n + h.blockSize - 1) / h.blockSize
	if want := 2*nBlocks + (n*h.bits+7)/8; len(body) != want {
		return h, nil, fmt.Errorf("%w: body is %d bytes, header implies %d", ErrCorrupt, len(body), want)
	}
	return h, body, nil
}
