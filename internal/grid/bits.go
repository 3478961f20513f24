package grid

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// This file is the one place float values become bits or bytes. Everything
// that serialises a field — the raw files and wire bodies of the CLI, the
// dataset tools and frazd, the literal sections of the sz and mgard
// streams, the lossless codec — goes through AppendLE/DecodeLE; the kernels
// that work on IEEE-754 fields directly (szx) go through Bits.

// Word constrains the unsigned integer that holds one Float's IEEE-754
// representation: uint32 for float32, uint64 for float64.
type Word interface {
	uint32 | uint64
}

// Bits views s as the IEEE-754 bit patterns of its elements, over the same
// memory: no copy, and a store through the view is a store into s. unsafe is
// what makes that possible — the safe route is math.Float32bits per element
// into a scratch slice and back, a pass and a buffer per block that the
// kernels exist to avoid. The view is endian-neutral: it reinterprets each
// element as the integer of its own width in the host's order, which is the
// value math.Float32bits/Float64bits return, so shifts and masks on it mean
// the same on any machine. It is not a serialisation (that is AppendLE).
// U must be T's width: Bits[float32, uint32] or Bits[float64, uint64].
func Bits[T Float, U Word](s []T) []U {
	var t T
	var u U
	if unsafe.Sizeof(t) != unsafe.Sizeof(u) {
		panic("grid: Bits needs a word of the element's width")
	}
	return unsafe.Slice((*U)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// ExpMask returns the exponent field of the format U holds (8 bits below the
// sign for a 4-byte word, 11 for an 8-byte one). A pattern with every bit of
// the field set is NaN or ±Inf — a test that, unlike an ordered comparison,
// NaN cannot slip through.
func ExpMask[U Word]() U {
	expBits := 11
	if unsafe.Sizeof(U(0)) == 4 {
		expBits = 8
	}
	return ^U(0) >> 1 &^ (^U(0) >> (1 + expBits))
}

// AppendLE appends the elements of src to dst as little-endian IEEE-754,
// 4 or 8 bytes each — the layout of SDRBench's raw files, whatever the
// host's byte order — growing dst at most once.
func AppendLE[T Float](dst []byte, src []T) []byte {
	n := len(dst)
	dst = slices.Grow(dst, len(src)*ElemSize[T]())[:n+len(src)*ElemSize[T]()]
	out := dst[n:]
	switch src := any(src).(type) {
	case []float32:
		for i, v := range src {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range src {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
	}
	return dst
}

// DecodeLE is the inverse of AppendLE: it fills dst from the first
// len(dst)·ElemSize bytes of src, which the caller has checked are there.
func DecodeLE[T Float](dst []T, src []byte) {
	switch dst := any(dst).(type) {
	case []float32:
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// FromLE is DecodeLE into a slice of its own: all of src, which the caller
// has checked is a whole number of elements, as values.
func FromLE[T Float](src []byte) []T {
	dst := make([]T, len(src)/ElemSize[T]())
	DecodeLE(dst, src)
	return dst
}
