package grid

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the preamble every kernel stream opens with, written once.
// A stream starts with a 4-byte little-endian magic that names the kernel
// and tags the element width, then the kernel's own fixed fields (the rank
// byte among them, at an offset of the kernel's choosing), then the shape:
// rank uint32 extents, slowest dimension first, then the body. The kernels
// keep their field positions; what they share is read and checked here.

// MaxElementsPerByte is the most values a stream may declare per byte it
// carries: 8 × 1032. DEFLATE expands at most 1032:1, and the Huffman stage
// sz and mgard share writes at least one bit per code, so no registered
// encoder writes a denser stream (szx, zfp and frsz stay below 600). A
// header that declares more is forged, and is refused before anything is
// sized from it.
const MaxElementsPerByte = 8 * 1032

// Stream is one kernel's preamble: its pair of magics, the ranks it codes,
// and the error every refusal wraps.
type Stream struct {
	// Magic32 and Magic64 tag streams of float32 and float64 values.
	Magic32, Magic64 uint32
	// MinRank and MaxRank bound the rank a stream may declare.
	MinRank, MaxRank int
	// Corrupt is the kernel's corrupt-stream error.
	Corrupt error
}

// Magic returns the magic that tags streams of elemSize-byte values.
func (s *Stream) Magic(elemSize int) uint32 {
	if elemSize == 4 {
		return s.Magic32
	}
	return s.Magic64
}

// Width checks that buf holds at least the fixed bytes of the kernel's
// header and returns the element width, 4 or 8, its magic tags.
func (s *Stream) Width(buf []byte, fixed int) (int, error) {
	if len(buf) < fixed {
		return 0, fmt.Errorf("%w: %d-byte stream is shorter than the %d-byte fixed header", s.Corrupt, len(buf), fixed)
	}
	switch m := binary.LittleEndian.Uint32(buf); m {
	case s.Magic32:
		return 4, nil
	case s.Magic64:
		return 8, nil
	default:
		return 0, fmt.Errorf("%w: bad magic %#x", s.Corrupt, m)
	}
}

// AppendShape appends the shape's extents to out.
func AppendShape(out []byte, shape Dims) []byte {
	for _, e := range shape {
		out = binary.LittleEndian.AppendUint32(out, uint32(e))
	}
	return out
}

// Shape reads the rank extents stored at offset off of buf and returns the
// shape and the bytes after it. The shape is one the kernel codes, one that
// passed Validate, and one of at most MaxElementsPerByte values per byte of
// buf.
func (s *Stream) Shape(buf []byte, off, rank int) (Dims, []byte, error) {
	if rank < s.MinRank || rank > s.MaxRank {
		return nil, nil, fmt.Errorf("%w: bad rank %d (want %d..%d)", s.Corrupt, rank, s.MinRank, s.MaxRank)
	}
	end := off + 4*rank
	if len(buf) < end {
		return nil, nil, fmt.Errorf("%w: truncated shape", s.Corrupt)
	}
	shape := make(Dims, rank)
	for i := range shape {
		e := binary.LittleEndian.Uint32(buf[off+4*i:])
		if e == 0 || e > math.MaxInt32 {
			return nil, nil, fmt.Errorf("%w: bad extent %d", s.Corrupt, e)
		}
		shape[i] = int(e)
	}
	if err := shape.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", s.Corrupt, err)
	}
	if shape.Len() > MaxElementsPerByte*len(buf) {
		return nil, nil, fmt.Errorf("%w: shape %v declares %d values, more than a %d-byte stream can hold",
			s.Corrupt, shape, shape.Len(), len(buf))
	}
	return shape, buf[end:], nil
}

// Expect checks a parsed stream against what the caller asked for: values
// of dst's element type, in the shape want, into a dst of exactly that many
// values. A dst of another length is the caller's bug, not a corrupt stream.
func Expect[T Float](s *Stream, dst []T, width int, got, want Dims) error {
	switch {
	case width != ElemSize[T]():
		return fmt.Errorf("%w: stream holds %d-byte elements, caller expects %d-byte", s.Corrupt, width, ElemSize[T]())
	case !got.Equal(want):
		return fmt.Errorf("%w: shape mismatch: stream has %v, caller expects %v", s.Corrupt, got, want)
	case len(dst) != want.Len():
		return fmt.Errorf("grid: destination holds %d values, shape %v has %d", len(dst), want, want.Len())
	}
	return nil
}
