// Package szx implements an ultra-fast error-bounded lossy compressor in the
// style of SZx (Yu et al., "SZx: an Ultra-fast Error-bounded Lossy Compressor
// for Scientific Datasets"). Where SZ buys ratio with prediction,
// quantization, Huffman coding, and a dictionary stage, SZx buys speed by
// doing none of that: the field is cut into fixed-size blocks of consecutive
// values, each block is classified as *constant* (every value within the
// error bound of one representative, stored as a single literal) or
// *nonconstant* (each value's IEEE-754 representation truncated to the
// leading significant bytes that the bound requires, packed byte-plane by
// byte-plane), and the result is emitted directly. Every operation on the
// hot path is a scan, a compare, or a byte shuffle — no entropy coder, no
// data-dependent branches beyond the per-block classification — which is
// what makes the codec run an order of magnitude faster than the
// prediction-based pipeline at a (data-dependent) ratio cost.
//
// The codec is dtype-generic over float32 and float64 and shape-agnostic:
// because there is no neighbour prediction, the block decomposition runs
// over the flat value stream, so any rank the framework supports (1..4)
// compresses identically.
//
// # One kernel, on a bit view
//
// Each direction is one function, generic over the element type T and the
// unsigned word U of the same width (kernel.go). What the codec does to a
// value — test its exponent field, keep its leading bytes, put them back —
// is an operation on its IEEE-754 bit pattern, so the kernel reads and
// writes the field through grid.Bits, a []U over the same memory as the
// []T, made with unsafe.Slice. That is why unsafe is here: the safe
// alternative copies every block into a scratch []U with math.Float32bits
// and back, a pass and a buffer the codec's whole point is not to pay, and
// written per width it was two copies of every loop. The view is
// endian-neutral: an element read through it is the value
// math.Float32bits/Float64bits would return, in a register, and the planes
// are cut from it with shifts, so the stream's bytes do not depend on the
// host's byte order (the constants go through grid.AppendLE, which is
// explicit about it). Compress and DecompressInto pair T with U, once each.
//
// # Stream layout (all integers little-endian)
//
// The stream is self-describing; DecompressInto needs no side information
// beyond the caller's expected shape. The element width is part of the
// magic — SZX1 marks float32 streams, SZX2 float64 — so a stream can never
// be reinterpreted at the wrong precision:
//
//	offset  size  field
//	0       4     magic "SZX1" (float32) or "SZX2" (float64)
//	4       1     rank R (1..4)
//	5       8     absolute error bound (IEEE-754 float64)
//	13      4     block size in elements (uint32, >= 1)
//	17      4×R   shape extents, slowest dimension first (uint32 each)
//
// The body follows, sized entirely by the header (block count B =
// ceil(elements / blockSize), C = number of constant blocks, N = B - C):
//
//	...     ⌈B/8⌉     constant-block bitmap, bit i (LSB-first) set when
//	                  block i is constant
//	...     C×W       one literal representative per constant block, raw
//	                  IEEE-754 bits (W = element width: 4 or 8)
//	...     N         one byte per nonconstant block: the number of leading
//	                  IEEE bytes kept per value (2..W)
//	...     Σ kᵢ×nᵢ   per nonconstant block, its byte planes: plane 0 (the
//	                  most significant byte of every value in the block),
//	                  then plane 1, … — kᵢ planes of nᵢ bytes each
//
// # Error bound
//
// A block whose spread max−min fits within twice the bound collapses to the
// midrange literal, which is within the bound of every member by
// construction (re-checked after rounding the representative to the element
// type, so the guarantee survives the narrowing cast). A nonconstant block
// keeps, for every value, the leading k bytes of its IEEE representation
// where k is chosen from the block's largest binary exponent E and the
// bound: zeroing the low mantissa bits of a value with exponent e introduces
// an error below 2^(e−m) for m kept mantissa bits, so k is the smallest
// byte count whose mantissa coverage m satisfies 2^(E−m) <= bound. Blocks
// containing NaN or ±Inf are stored at full width (k = W, bit-exact):
// truncating a NaN payload could silently turn it into an infinity, so
// non-finite data is never truncated.
package szx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"fraz/internal/grid"
)

// magic32 and magic64 identify SZx-Go streams of float32 and float64 data.
const (
	magic32 = 0x31585A53 // "SZX1" in little-endian byte order
	magic64 = 0x32585A53 // "SZX2"
)

// DefaultBlockSize is the number of consecutive values per block, matching
// the SZx paper's default of 128.
const DefaultBlockSize = 128

// maxBlockSize bounds the block size a stream may declare; combined with the
// element count implied by the shape it keeps hostile headers from
// requesting absurd plane buffers.
const maxBlockSize = 1 << 24

// ErrInvalidInput is returned when the data or options are malformed.
var ErrInvalidInput = errors.New("szx: invalid input")

// ErrCorrupt is returned by DecompressInto for unparsable streams.
var ErrCorrupt = errors.New("szx: corrupt stream")

// stream is szx's preamble (internal/grid): its magics and ranks 1 to 4.
var stream = grid.Stream{Magic32: magic32, Magic64: magic64, MinRank: 1, MaxRank: 4, Corrupt: ErrCorrupt}

// Options configures compression.
type Options struct {
	// ErrorBound is the absolute pointwise error bound. It must be positive
	// and finite; zero is rejected (a zero bound means lossless, which this
	// codec does not pretend to be — use flate:lossless).
	ErrorBound float64
	// BlockSize is the number of consecutive values per block; 0 selects
	// DefaultBlockSize. Values larger than the field collapse to a single
	// block.
	BlockSize int
}

func (o Options) withDefaults() (Options, error) {
	if !(o.ErrorBound > 0) || math.IsInf(o.ErrorBound, 0) || math.IsNaN(o.ErrorBound) {
		return o, fmt.Errorf("%w: error bound must be positive and finite, got %v", ErrInvalidInput, o.ErrorBound)
	}
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize < 1 || o.BlockSize > maxBlockSize {
		return o, fmt.Errorf("%w: block size %d (want 1..%d)", ErrInvalidInput, o.BlockSize, maxBlockSize)
	}
	return o, nil
}

// Compress compresses data of the given shape under the options' absolute
// error bound and returns the self-describing compressed stream.
func Compress[T grid.Float](data []T, shape grid.Dims, opts Options) ([]byte, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Go cannot derive the word type from T, so the pairing is spelled out
	// here and in DecompressInto, once per direction.
	if d, ok := any(data).([]float32); ok {
		return compress[float32, uint32](d, shape, o), nil
	}
	return compress[float64, uint64](any(data).([]float64), shape, o), nil
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
	if d, ok := any(dst).([]float32); ok {
		return decompress[float32, uint32](d, h, body)
	}
	return decompress[float64, uint64](any(dst).([]float64), h, body)
}

type header struct {
	elemSize  int
	bound     float64
	blockSize int
	shape     grid.Dims
}

const fixedHeaderLen = 4 + 1 + 8 + 4

// parseHeader reads the fixed fields and the preamble's shape, returning the
// body that follows them.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if h.elemSize, err = stream.Width(buf, fixedHeaderLen); err != nil {
		return h, nil, err
	}
	h.bound = math.Float64frombits(binary.LittleEndian.Uint64(buf[5:13]))
	if !(h.bound > 0) || math.IsInf(h.bound, 0) || math.IsNaN(h.bound) {
		return h, nil, fmt.Errorf("%w: bad error bound %v", ErrCorrupt, h.bound)
	}
	h.blockSize = int(binary.LittleEndian.Uint32(buf[13:17]))
	if h.blockSize < 1 || h.blockSize > maxBlockSize {
		return h, nil, fmt.Errorf("%w: bad block size %d", ErrCorrupt, h.blockSize)
	}
	h.shape, body, err = stream.Shape(buf, fixedHeaderLen, int(buf[4]))
	return h, body, err
}

// boundExp returns the exponent lb with 2^(lb-1) <= bound, the quantity the
// per-block byte-count computation compares block exponents against.
func boundExp(bound float64) int {
	_, exp := math.Frexp(bound)
	return exp
}

// keptBytes computes the number of leading IEEE bytes to keep for a
// nonconstant block: the smallest k whose mantissa coverage m = 8k−1−expBits
// satisfies 2^(E−m) <= bound, clamped to [2, elemSize]. k is at least 2 so
// the sign and the full exponent field always survive; k = elemSize stores
// the block bit-exactly.
func keptBytes(maxExp, lb, expBits, elemSize int) int {
	need := maxExp - lb + 1 // required mantissa bits m
	if need < 0 {
		need = 0
	}
	k := (need + expBits + 1 + 7) / 8
	if k < 2 {
		k = 2
	}
	if k > elemSize {
		k = elemSize
	}
	return k
}

// sectionSizes derives every body-section length from the header and the
// bitmap + kept-bytes sections, so the decoder can bounds-check the whole
// stream before touching a value.
func bodySections(h header, body []byte) (bitmap, consts, kept, planes []byte, nBlocks int, err error) {
	n := h.shape.Len()
	nBlocks = (n + h.blockSize - 1) / h.blockSize
	bitmapLen := (nBlocks + 7) / 8
	if len(body) < bitmapLen {
		return nil, nil, nil, nil, 0, fmt.Errorf("%w: truncated bitmap", ErrCorrupt)
	}
	bitmap = body[:bitmapLen]
	nConst := 0
	for _, b := range bitmap {
		nConst += bits.OnesCount8(b)
	}
	// Bits beyond the last block must be zero (they would silently change
	// the constant count otherwise).
	if pad := bitmapLen*8 - nBlocks; pad > 0 {
		if bitmap[bitmapLen-1]>>(8-pad) != 0 {
			return nil, nil, nil, nil, 0, fmt.Errorf("%w: nonzero bitmap padding", ErrCorrupt)
		}
	}
	if nConst > nBlocks {
		return nil, nil, nil, nil, 0, fmt.Errorf("%w: %d constant blocks of %d", ErrCorrupt, nConst, nBlocks)
	}
	rest := body[bitmapLen:]
	constLen := nConst * h.elemSize
	if len(rest) < constLen {
		return nil, nil, nil, nil, 0, fmt.Errorf("%w: truncated constants", ErrCorrupt)
	}
	consts, rest = rest[:constLen], rest[constLen:]
	nNon := nBlocks - nConst
	if len(rest) < nNon {
		return nil, nil, nil, nil, 0, fmt.Errorf("%w: truncated kept-bytes section", ErrCorrupt)
	}
	kept, planes = rest[:nNon], rest[nNon:]
	return bitmap, consts, kept, planes, nBlocks, nil
}

func constant(bitmap []byte, i int) bool { return bitmap[i>>3]&(1<<(i&7)) != 0 }
