// Package blocks decomposes an N-dimensional buffer into independent
// sub-buffers along its slowest-varying axis, the decomposition behind the
// blocked `.fraz` container (format v2) and the parallel seal/open path.
//
// Splitting along the slowest axis only — rather than into the small cubic
// cells the compressors themselves use internally — keeps every block
// contiguous in the row-major flat array, so a block is a zero-copy
// subslice both ways: compression reads it in place, and decompression
// writes it in place, with nothing to reassemble. Each block is a complete
// N-d field in its own right (same rank,
// same fast-axis extents), which is what lets the existing compressors run
// on a block unchanged; this is the same layout trick SZx's fixed-size
// block pipeline and FZ-GPU's block-parallel kernels use to turn one big
// compression into many independent small ones.
//
// The decomposition is deterministic: Plan(shape, n) always produces the
// same blocks for the same inputs, so a reader can reconstruct every
// block's shape and element offset from just the container's overall shape
// and block count.
package blocks

import (
	"errors"
	"fmt"

	"fraz/internal/grid"
)

// ErrBadPlan is returned (wrapped) when a decomposition request is invalid.
var ErrBadPlan = errors.New("blocks: invalid block plan")

// Block is one contiguous sub-buffer of a larger field: the elements
// data[Start : Start+Shape.Len()] of the flat row-major array, interpreted
// with the block's own (rank-preserving) shape.
type Block struct {
	// Index is the block's position in the plan, in slowest-axis order.
	Index int
	// Start is the block's element offset into the flat source array.
	Start int
	// Shape is the block's logical shape: the source shape with the
	// slowest-axis extent reduced to this block's share.
	Shape grid.Dims
}

// Len returns the number of elements in the block.
func (b Block) Len() int { return b.Shape.Len() }

// Plan splits shape into n contiguous blocks along the slowest axis,
// distributing the remainder one row at a time over the leading blocks, so
// block extents never differ by more than one row (shape-aware remainder
// handling — a 10-row field split 4 ways yields 3+3+2+2, not 3+3+3+1).
// n is clamped to the slowest-axis extent (a 3-row field cannot be split 8
// ways); n <= 1 yields a single block covering the whole field.
func Plan(shape grid.Dims, n int) ([]Block, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPlan, err)
	}
	if n < 1 {
		n = 1
	}
	if n > shape[0] {
		n = shape[0]
	}
	rowLen := 1
	for _, e := range shape[1:] {
		rowLen *= e
	}
	base, rem := shape[0]/n, shape[0]%n
	plan := make([]Block, n)
	start := 0
	for i := range plan {
		rows := base
		if i < rem {
			rows++
		}
		sub := shape.Clone()
		sub[0] = rows
		plan[i] = Block{Index: i, Start: start, Shape: sub}
		start += rows * rowLen
	}
	return plan, nil
}

// Slice returns the block's sub-buffer as a zero-copy subslice of the flat
// array, which must hold exactly the plan's shape: the values to compress,
// or the output a block decodes into.
func Slice[T grid.Float](data []T, b Block) ([]T, error) {
	end := b.Start + b.Len()
	if b.Start < 0 || end > len(data) {
		return nil, fmt.Errorf("%w: block %d spans [%d,%d) of %d elements", ErrBadPlan, b.Index, b.Start, end, len(data))
	}
	return data[b.Start:end], nil
}

// DefaultCount suggests a block count for a shape: enough blocks to keep
// `workers` cores busy with a little slack for stragglers (2 blocks per
// worker), clamped to the slowest-axis extent by Plan. A non-positive
// worker count yields 1 (monolithic).
func DefaultCount(shape grid.Dims, workers int) int {
	if workers <= 0 {
		return 1
	}
	n := 2 * workers
	if len(shape) > 0 && n > shape[0] {
		n = shape[0]
	}
	if n < 1 {
		n = 1
	}
	return n
}
