package blocks

import (
	"errors"
	"testing"
	"testing/quick"

	"fraz/internal/grid"
)

func TestPlanRemainderDistribution(t *testing.T) {
	// 10 rows over 4 blocks: 3+3+2+2, never 3+3+3+1.
	plan, err := Plan(grid.MustDims(10, 5), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 2, 2}
	if len(plan) != len(want) {
		t.Fatalf("got %d blocks, want %d", len(plan), len(want))
	}
	start := 0
	for i, b := range plan {
		if b.Shape[0] != want[i] {
			t.Errorf("block %d has %d rows, want %d", i, b.Shape[0], want[i])
		}
		if b.Shape[1] != 5 {
			t.Errorf("block %d fast axis %d, want 5", i, b.Shape[1])
		}
		if b.Start != start {
			t.Errorf("block %d starts at %d, want %d", i, b.Start, start)
		}
		if b.Index != i {
			t.Errorf("block %d reports index %d", i, b.Index)
		}
		start += b.Len()
	}
	if start != 50 {
		t.Errorf("blocks cover %d elements, want 50", start)
	}
}

func TestPlanClampsAndDegenerateCounts(t *testing.T) {
	// More blocks than rows: clamp to the slowest extent.
	plan, err := Plan(grid.MustDims(3, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Errorf("got %d blocks, want 3 (clamped to slowest axis)", len(plan))
	}
	// n <= 1 is a single monolithic block.
	for _, n := range []int{1, 0, -5} {
		plan, err := Plan(grid.MustDims(6, 2), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) != 1 || plan[0].Start != 0 || plan[0].Len() != 12 {
			t.Errorf("Plan(n=%d) = %+v, want one full block", n, plan)
		}
	}
	if _, err := Plan(nil, 4); !errors.Is(err, ErrBadPlan) {
		t.Errorf("nil shape: err = %v, want ErrBadPlan", err)
	}
}

func TestSliceBounds(t *testing.T) {
	data := make([]float32, 12)
	bad := Block{Index: 0, Start: 8, Shape: grid.MustDims(2, 4)}
	if _, err := Slice(data, bad); !errors.Is(err, ErrBadPlan) {
		t.Errorf("out-of-range Slice: err = %v, want ErrBadPlan", err)
	}
}

// TestPropertySplitReassembleRoundTrip checks, over random 1-d/2-d/3-d odd
// shapes and block counts, that the plan partitions the buffer exactly: the
// blocks are contiguous, disjoint, cover every element, and writing each
// block's values into its slice of an output reproduces the original bit for
// bit, the way a blocked open decodes in place.
func TestPropertySplitReassembleRoundTrip(t *testing.T) {
	f := func(d0s, d1s, d2s uint8, ranks, ns uint8) bool {
		rank := int(ranks%3) + 1
		extents := []int{int(d0s%31) + 1, int(d1s%13) + 1, int(d2s%7) + 1}[:rank]
		shape := grid.MustDims(extents...)
		n := int(ns%40) + 1

		data := make([]float32, shape.Len())
		for i := range data {
			data[i] = float32(i)*0.5 + 1
		}

		plan, err := Plan(shape, n)
		if err != nil {
			return false
		}
		if len(plan) > shape[0] || len(plan) < 1 {
			return false
		}
		out := make([]float32, len(data))
		covered := 0
		for i, b := range plan {
			// Contiguity and shape preservation.
			if b.Start != covered || b.Shape.NDims() != rank {
				return false
			}
			for k := 1; k < rank; k++ {
				if b.Shape[k] != shape[k] {
					return false
				}
			}
			sub, err := Slice(data, b)
			if err != nil || len(sub) != b.Len() {
				return false
			}
			// Simulate decompression writing into the block's slice.
			dst, err := Slice(out, b)
			if err != nil {
				return false
			}
			copy(dst, sub)
			covered += b.Len()
			// Row counts differ by at most one across blocks.
			if i > 0 && abs(plan[i-1].Shape[0]-b.Shape[0]) > 1 {
				return false
			}
		}
		if covered != len(data) {
			return false
		}
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestDefaultCount(t *testing.T) {
	shape := grid.MustDims(100, 10)
	if n := DefaultCount(shape, 8); n != 16 {
		t.Errorf("DefaultCount(100 rows, 8 workers) = %d, want 16", n)
	}
	if n := DefaultCount(grid.MustDims(3, 10), 8); n != 3 {
		t.Errorf("DefaultCount(3 rows, 8 workers) = %d, want 3", n)
	}
	if n := DefaultCount(shape, 0); n != 1 {
		t.Errorf("DefaultCount(0 workers) = %d, want 1", n)
	}
}
