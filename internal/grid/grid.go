// Package grid provides descriptors and iteration helpers for dense
// N-dimensional arrays of scalar data stored in row-major (C) order.
//
// All compressors in this repository operate on flat []float32 or []float64
// buffers (the Float constraint) whose logical shape is described by a Dims
// value. The package provides shape validation, stride computation, block
// decomposition (used by the blockwise SZ- and ZFP-like compressors)
// and plane/slice extraction (used by the image-quality metrics).
package grid

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Float constrains the scalar element types the framework compresses:
// IEEE-754 single and double precision. Every layer between the codec
// kernels and the public API is generic over (or dispatches on) this
// constraint, which is what makes float64 data first-class.
type Float interface {
	float32 | float64
}

// ElemSize returns the size in bytes of one element of type T.
func ElemSize[T Float]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Dims describes the logical shape of an N-dimensional array in row-major
// order: Dims{nz, ny, nx} for 3-D data, Dims{ny, nx} for 2-D, Dims{n} for 1-D.
// The slowest-varying dimension comes first, matching the layout used by the
// SDRBench datasets the paper evaluates.
type Dims []int

// NewDims returns a copy of the extents as a Dims value that passed Validate.
func NewDims(extents ...int) (Dims, error) {
	d := Dims(extents).Clone()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// MustDims is like NewDims but panics on invalid input. It is intended for
// tests, examples, and compile-time-constant shapes.
func MustDims(extents ...int) Dims {
	d, err := NewDims(extents...)
	if err != nil {
		panic(err)
	}
	return d
}

// NDims reports the number of dimensions.
func (d Dims) NDims() int { return len(d) }

// Len reports the total number of elements described by the shape.
func (d Dims) Len() int {
	if len(d) == 0 {
		return 0
	}
	n := 1
	for _, e := range d {
		n *= e
	}
	return n
}

// Clone returns an independent copy of the shape.
func (d Dims) Clone() Dims {
	c := make(Dims, len(d))
	copy(c, d)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
func (d Dims) Equal(o Dims) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// Strides returns the row-major strides for the shape: the element distance
// between consecutive indices along each dimension.
func (d Dims) Strides() []int {
	s := make([]int, len(d))
	acc := 1
	for i := len(d) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= d[i]
	}
	return s
}

// String renders the shape as, e.g., "100x500x500".
func (d Dims) String() string {
	out := ""
	for i, e := range d {
		if i > 0 {
			out += "x"
		}
		out += fmt.Sprintf("%d", e)
	}
	return out
}

// ParseDims is the inverse of String: it reads "100x500x500" into a shape
// that passed Validate, so every size a caller derives from it is a true
// size. It is the one parser of shapes that arrive as text — a command-line
// flag, a request header.
func ParseDims(s string) (Dims, error) {
	if s == "" {
		return nil, errors.New("grid: empty shape (want extents, slowest first, e.g. 100x500x500)")
	}
	parts := strings.Split(s, "x")
	extents := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("grid: bad extent %q in shape %q", p, s)
		}
		extents[i] = v
	}
	return NewDims(extents...)
}

// maxElemSize is the widest element the framework stores (float64).
const maxElemSize = 8

// Validate is the one rule every shape passes before anything is computed
// from it: rank 1 to 4, every extent positive, and an element count whose
// size in bytes at the widest element type still fits in an int — so Len, a
// byte size or a block span taken from a validated shape cannot wrap,
// whether the shape came from a caller, a request or a container header.
func (d Dims) Validate() error {
	if len(d) == 0 {
		return errors.New("grid: empty shape")
	}
	if len(d) > 4 {
		return fmt.Errorf("grid: unsupported rank %d (want 1..4)", len(d))
	}
	n := 1
	for i, e := range d {
		if e <= 0 {
			return fmt.Errorf("grid: dimension %d has non-positive extent %d", i, e)
		}
		if e > math.MaxInt/maxElemSize/n {
			return fmt.Errorf("grid: shape %v has more elements than can be addressed", d)
		}
		n *= e
	}
	return nil
}

// Block describes an axis-aligned sub-box of an N-dimensional array:
// the starting coordinate and the extent along each dimension.
type Block struct {
	Start Dims
	Size  Dims
}

// Len returns the number of elements covered by the block.
func (b Block) Len() int { return b.Size.Len() }

// Blocks decomposes the shape into consecutive non-overlapping blocks of the
// requested edge length along every dimension (matching SZ's 6x6x6 and ZFP's
// 4x4x4 decompositions). Boundary blocks are truncated to fit.
func (d Dims) Blocks(edge int) []Block {
	if edge <= 0 {
		edge = 1
	}
	counts := make([]int, len(d))
	total := 1
	for i, e := range d {
		counts[i] = (e + edge - 1) / edge
		total *= counts[i]
	}
	blocks := make([]Block, 0, total)
	idx := make([]int, len(d))
	// One backing array serves every block's Start and Size: the block list
	// is the per-call unit of the hot seal/open loops, and 2×total small
	// allocations here used to dominate their profiles.
	backing := make(Dims, 2*total*len(d))
	for {
		start := backing[:len(d):len(d)]
		size := backing[len(d) : 2*len(d) : 2*len(d)]
		backing = backing[2*len(d):]
		for i := range d {
			start[i] = idx[i] * edge
			size[i] = edge
			if start[i]+size[i] > d[i] {
				size[i] = d[i] - start[i]
			}
		}
		blocks = append(blocks, Block{Start: start, Size: size})
		// Advance the odometer.
		k := len(d) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < counts[k] {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return blocks
}

// Slice2D extracts a 2-D plane from a 3-D array along the slowest axis
// (plane index z), returning the plane data and its 2-D shape. For 2-D input
// the whole array is returned. It is used by the SSIM and visualization
// metrics which operate on image slices, as in Fig. 10 of the paper.
func Slice2D[T Float](data []T, shape Dims, plane int) ([]T, Dims, error) {
	switch len(shape) {
	case 2:
		out := make([]T, len(data))
		copy(out, data)
		return out, shape.Clone(), nil
	case 3:
		if plane < 0 || plane >= shape[0] {
			return nil, nil, fmt.Errorf("grid: plane %d out of range [0,%d)", plane, shape[0])
		}
		n := shape[1] * shape[2]
		out := make([]T, n)
		copy(out, data[plane*n:(plane+1)*n])
		return out, Dims{shape[1], shape[2]}, nil
	default:
		return nil, nil, fmt.Errorf("grid: Slice2D requires 2-D or 3-D data, got rank %d", len(shape))
	}
}

// MinMax returns the minimum and maximum of the data. It returns (0, 0) for
// empty input.
func MinMax[T Float](data []T) (min, max T) {
	if len(data) == 0 {
		return 0, 0
	}
	min, max = data[0], data[0]
	for _, v := range data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// ValueRange returns max-min of the data as a float64.
func ValueRange[T Float](data []T) float64 {
	min, max := MinMax(data)
	return float64(max) - float64(min)
}
