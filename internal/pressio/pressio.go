// Package pressio provides a small generic abstraction over the lossy
// compressors in this repository, playing the role libpressio plays in the
// paper: FRaZ never talks to SZ, ZFP, or MGARD directly, only to this
// package, which is what makes the framework compressor-agnostic.
//
// Each codec is one Codec value — one row of the table in codecs.go — that
// states everything the framework knows about it: its name, the ranks it
// accepts, its kernel, and the domain of its one tunable scalar parameter
// (what it measures, the interval it may take, whether it is a whole
// number). That parameter is the dimension FRaZ's autotuner searches over,
// in the unit its domain declares. Adding a codec is one table row plus its
// kernel package.
//
// Buffers are dtype-tagged: a Buffer carries either float32 or float64 data
// behind one opaque value, and every layer above this package (the tuner,
// the container seal/open paths, the public API) threads that tag through
// without caring which width it is. Only the codec kernels — and the
// encoder/decoder helpers in this package that dispatch to them — know the
// element width.
//
// Decoding follows libpressio's contract, in which the caller owns the
// output: a kernel decodes into a Buffer it is handed and allocates none.
// Decompress allocates that Buffer for one stream; OpenBlocked allocates it
// once for a whole archive and hands each block its slice of it.
package pressio

import (
	"fmt"

	"fraz/internal/blocks"
	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/metrics"
)

// Buffer couples a flat float array — single or double precision — with its
// logical shape. The element type is carried as a dtype tag plus a typed
// view over the same backing slice, never a copy; construct one with
// NewBuffer (float32) or NewBufferOf (either width). The zero Buffer is an
// empty float32 buffer.
type Buffer struct {
	// Shape is the logical shape, slowest dimension first.
	Shape grid.Dims

	dtype container.DType
	f32   []float32
	f64   []float64
	// recon32 and recon64 are where the Encode of a codec that Reconstructs
	// writes the reconstruction, at the data's width and length. evaluate
	// sets them on its copy of the buffer for a quality evaluation, to a
	// plain allocation of its own; every other buffer leaves them nil.
	recon32 []float32
	recon64 []float64
}

// NewBufferOf validates and constructs a Buffer over float32 or float64
// data. The data slice is referenced, not copied.
func NewBufferOf[T grid.Float](data []T, shape grid.Dims) (Buffer, error) {
	if err := shape.Validate(); err != nil {
		return Buffer{}, err
	}
	if len(data) != shape.Len() {
		return Buffer{}, fmt.Errorf("pressio: data length %d does not match shape %v", len(data), shape)
	}
	switch d := any(data).(type) {
	case []float32:
		return Buffer{Shape: shape, dtype: container.Float32, f32: d}, nil
	case []float64:
		return Buffer{Shape: shape, dtype: container.Float64, f64: d}, nil
	}
	panic("pressio: unreachable element type")
}

// DType reports the buffer's element type tag.
func (b Buffer) DType() container.DType { return b.dtype }

// Len reports the number of elements.
func (b Buffer) Len() int {
	if b.dtype == container.Float64 {
		return len(b.f64)
	}
	return len(b.f32)
}

// Bytes returns the uncompressed size of the buffer in bytes.
func (b Buffer) Bytes() int { return b.Len() * b.dtype.Size() }

// Float32 returns the single-precision view of the data, nil for a float64
// buffer.
func (b Buffer) Float32() []float32 { return b.f32 }

// Float64 returns the double-precision view of the data, nil for a float32
// buffer.
func (b Buffer) Float64() []float64 { return b.f64 }

// ValueRange returns max-min of the data, whatever its width.
func (b Buffer) ValueRange() float64 {
	if b.dtype == container.Float64 {
		return grid.ValueRange(b.f64)
	}
	return grid.ValueRange(b.f32)
}

// Slice views one planned block of the buffer as a Buffer of its own — a
// zero-copy subslice at either width, which is what keeps the blocked seal
// path allocation-free on the way down.
func (b Buffer) Slice(blk blocks.Block) (Buffer, error) {
	if b.dtype == container.Float64 {
		sub, err := blocks.Slice(b.f64, blk)
		if err != nil {
			return Buffer{}, err
		}
		return Buffer{Shape: blk.Shape, dtype: b.dtype, f64: sub}, nil
	}
	sub, err := blocks.Slice(b.f32, blk)
	if err != nil {
		return Buffer{}, err
	}
	return Buffer{Shape: blk.Shape, dtype: b.dtype, f32: sub}, nil
}

// encoder builds a Codec.Encode from a kernel package's generic Compress:
// opts turns the parameter value into the kernel's options, and the buffer
// is routed to the instantiation matching its element width. This is the
// one place the compress-side width dispatch is written.
func encoder[O any](opts func(buf Buffer, param float64) O,
	f32 func([]float32, grid.Dims, O) ([]byte, error),
	f64 func([]float64, grid.Dims, O) ([]byte, error)) func(Buffer, float64) ([]byte, error) {
	return func(buf Buffer, param float64) ([]byte, error) {
		if buf.dtype == container.Float64 {
			return f64(buf.f64, buf.Shape, opts(buf, param))
		}
		return f32(buf.f32, buf.Shape, opts(buf, param))
	}
}

// reconEncoder is encoder for a kernel that can write its reconstruction as
// it compresses: the buffer's reconstruction destination, nil unless a
// quality evaluation attached one, goes to the kernel with the data.
func reconEncoder[O any](opts func(buf Buffer, param float64) O,
	f32 func([]float32, grid.Dims, O, []float32) ([]byte, error),
	f64 func([]float64, grid.Dims, O, []float64) ([]byte, error)) func(Buffer, float64) ([]byte, error) {
	return func(buf Buffer, param float64) ([]byte, error) {
		if buf.dtype == container.Float64 {
			return f64(buf.f64, buf.Shape, opts(buf, param), buf.recon64)
		}
		return f32(buf.f32, buf.Shape, opts(buf, param), buf.recon32)
	}
}

// decoder builds a Codec.Decode from a kernel package's generic
// DecompressInto, routing the destination to the instantiation matching its
// element width. It is the decode-side twin of encoder.
func decoder(f32 func([]float32, []byte, grid.Dims) error,
	f64 func([]float64, []byte, grid.Dims) error) func([]byte, Buffer) error {
	return func(comp []byte, dst Buffer) error {
		if dst.dtype == container.Float64 {
			return f64(dst.f64, comp, dst.Shape)
		}
		return f32(dst.f32, comp, dst.Shape)
	}
}

// Evaluate computes the full quality report between an original buffer and
// its reconstruction, dispatching on the shared element width.
func Evaluate(orig, dec Buffer, compressedBytes int) (metrics.Report, error) {
	if orig.dtype != dec.dtype {
		return metrics.Report{}, fmt.Errorf("pressio: evaluate %s reconstruction against %s original", dec.dtype, orig.dtype)
	}
	if orig.dtype == container.Float64 {
		return metrics.EvaluateGrid(orig.f64, dec.f64, orig.Shape, compressedBytes)
	}
	return metrics.EvaluateGrid(orig.f32, dec.f32, orig.Shape, compressedBytes)
}

// Run compresses the buffer with the given bound and evaluates the round
// trip, returning its quality report. It is the convenience used by the
// experiment harness; FRaZ's inner loop uses Ratio instead, which measures
// only the size.
func Run(c Compressor, buf Buffer, bound float64) (metrics.Report, error) {
	entry, _, err := evaluate(c, buf, bound, true)
	return entry.Report, err
}

// Ratio compresses the buffer with the given bound and returns the achieved
// compression ratio and compressed size. This is the single black-box
// evaluation FRaZ's optimizer performs at every iteration.
func Ratio(c Compressor, buf Buffer, bound float64) (float64, int, error) {
	entry, _, err := evaluate(c, buf, bound, false)
	return entry.Ratio, entry.Size, err
}

// evaluate is the one compress body behind Ratio, Run and Evaluator.Evaluate:
// it compresses the buffer at bound and, when full, reports on the round
// trip. The reconstruction it reports on is the encoder's own when the codec
// Reconstructs — written, as it compressed, into a buffer allocated here —
// and the decoded stream otherwise. The stream it measured is returned, the
// caller's to keep.
func evaluate(c Compressor, buf Buffer, bound float64, full bool) (CacheEntry, []byte, error) {
	codec := c.Descriptor()
	in, dec := buf, Buffer{}
	if full && codec.Reconstructs {
		var err error
		if dec, err = codec.output(buf.Shape, buf.dtype); err != nil {
			return CacheEntry{}, nil, err
		}
		in.recon32, in.recon64 = dec.f32, dec.f64
	}
	comp, err := c.Compress(in, bound)
	if err != nil {
		return CacheEntry{}, nil, err
	}
	entry := CacheEntry{Bound: bound, Ratio: metrics.CompressionRatio(buf.Bytes(), len(comp)), Size: len(comp)}
	if !full {
		return entry, comp, nil
	}
	if !codec.Reconstructs {
		if dec, err = c.Decompress(comp, buf.Shape, buf.dtype); err != nil {
			return CacheEntry{}, nil, err
		}
	}
	if entry.Report, err = Evaluate(buf, dec, len(comp)); err != nil {
		return CacheEntry{}, nil, err
	}
	return entry, comp, nil
}
