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
// The stream is self-describing; Decompress needs no side information. The
// element width is part of the magic — FRZ1 marks float32 streams, FRZ2
// float64 — so a stream can never be reinterpreted at the wrong precision:
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

// maxDecodeElements caps the element count a stream header may declare
// (2^28 ≈ 268M values). A 1-bit-per-value stream expands 32–64x, so without
// a cap a small hostile header could demand an arbitrarily large allocation
// before any payload is validated. Compression of larger fields goes
// through the blocked pipeline, which splits well below this limit.
const maxDecodeElements = 1 << 28

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

// ErrCorrupt is returned by Decompress for unparsable streams.
var ErrCorrupt = errors.New("frsz: corrupt stream")

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

// magicFor returns the stream magic for element type T.
func magicFor[T grid.Float]() uint32 {
	if grid.ElemSize[T]() == 4 {
		return magic32
	}
	return magic64
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
	if len(data) > maxDecodeElements {
		return nil, fmt.Errorf("%w: %d elements exceeds the %d-element stream limit (use the blocked pipeline)", ErrInvalidInput, len(data), maxDecodeElements)
	}
	o, err := opts.withDefaults(grid.ElemSize[T]())
	if err != nil {
		return nil, err
	}
	return compress(data, shape, o)
}

// Decompress reconstructs the data from a stream produced by Compress. A
// non-nil shape must match the shape recorded in the header. Malformed
// input of any kind returns an error wrapping ErrCorrupt; Decompress never
// panics.
func Decompress[T grid.Float](buf []byte, shape grid.Dims) ([]T, error) {
	hdr, body, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	if hdr.elemSize != grid.ElemSize[T]() {
		return nil, fmt.Errorf("%w: stream holds %d-byte elements, caller expects %d-byte", ErrCorrupt, hdr.elemSize, grid.ElemSize[T]())
	}
	if shape != nil && !hdr.shape.Equal(shape) {
		return nil, fmt.Errorf("%w: shape mismatch: stream has %v, caller expects %v", ErrCorrupt, hdr.shape, shape)
	}
	return decompress[T](hdr, body)
}

// HeaderShape extracts the shape stored in a compressed stream.
func HeaderShape(buf []byte) (grid.Dims, error) {
	hdr, _, err := parseHeader(buf)
	if err != nil {
		return nil, err
	}
	return hdr.shape, nil
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

func parseHeader(buf []byte) (header, []byte, error) {
	if len(buf) < fixedHeaderLen {
		return header{}, nil, fmt.Errorf("%w: %d-byte stream is shorter than the %d-byte fixed header", ErrCorrupt, len(buf), fixedHeaderLen)
	}
	var h header
	switch binary.LittleEndian.Uint32(buf) {
	case magic32:
		h.elemSize = 4
	case magic64:
		h.elemSize = 8
	default:
		return header{}, nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(buf))
	}
	rank := int(buf[4])
	if rank < 1 || rank > 4 {
		return header{}, nil, fmt.Errorf("%w: rank %d (want 1..4)", ErrCorrupt, rank)
	}
	h.bits = int(buf[5])
	if h.bits < 1 || h.bits > 8*h.elemSize {
		return header{}, nil, fmt.Errorf("%w: %d bits per value (want 1..%d)", ErrCorrupt, h.bits, 8*h.elemSize)
	}
	h.blockSize = int(binary.LittleEndian.Uint32(buf[6:]))
	if h.blockSize < 1 || h.blockSize > maxBlockSize {
		return header{}, nil, fmt.Errorf("%w: block size %d (want 1..%d)", ErrCorrupt, h.blockSize, maxBlockSize)
	}
	if len(buf) < fixedHeaderLen+4*rank {
		return header{}, nil, fmt.Errorf("%w: truncated shape extents", ErrCorrupt)
	}
	h.shape = make(grid.Dims, rank)
	n := 1
	for i := 0; i < rank; i++ {
		e := binary.LittleEndian.Uint32(buf[fixedHeaderLen+4*i:])
		if e == 0 || e > math.MaxInt32 {
			return header{}, nil, fmt.Errorf("%w: shape extent %d out of range", ErrCorrupt, e)
		}
		h.shape[i] = int(e)
		if n > maxDecodeElements/int(e) {
			return header{}, nil, fmt.Errorf("%w: shape %v exceeds the %d-element stream limit", ErrCorrupt, h.shape[:i+1], maxDecodeElements)
		}
		n *= int(e)
	}
	body := buf[fixedHeaderLen+4*rank:]
	nBlocks := (n + h.blockSize - 1) / h.blockSize
	want := 2*nBlocks + (n*h.bits+7)/8
	if len(body) != want {
		return header{}, nil, fmt.Errorf("%w: body is %d bytes, header implies %d", ErrCorrupt, len(body), want)
	}
	return h, body, nil
}
