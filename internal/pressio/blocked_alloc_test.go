package pressio

import (
	"context"
	"math"
	"testing"

	"fraz/internal/grid"
)

// TestOpenBlockedAllocBudget pins the allocation count of the blocked open
// path: per-block scratch (chunk buffers, coder working sets, DEFLATE state)
// is borrowed from internal/pool, so a warm pipeline must stay within a
// small per-codec budget instead of re-allocating per block. Each block's
// decode output is not scratch: it is a plain allocation, one per block
// (measured 50 / 169 / 57 / 21 / 25 allocs/op in the order below). The
// ceilings carry slack for map/interface noise but sit far below the
// pre-pooling counts (flate:lossless ~95, zfp ~900, sz ~505 allocs/op at
// this block count), so scratch leaking back to make() trips the test.
func TestOpenBlockedAllocBudget(t *testing.T) {
	shape := grid.MustDims(64, 64)
	f32 := make([]float32, shape.Len())
	for i := range f32 {
		f32[i] = float32(math.Sin(float64(i) / 9))
	}
	buf, err := NewBufferOf(f32, shape)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		codec  string
		bound  float64
		budget float64
	}{
		{"flate:lossless", 1, 80},
		{"sz:abs", 1e-3, 280},
		{"zfp:accuracy", 1e-3, 120},
		{"szx:abs", 1e-3, 60},
		{"frsz:rate", 8, 60},
	}
	for _, tc := range cases {
		t.Run(tc.codec, func(t *testing.T) {
			c, err := New(tc.codec)
			if err != nil {
				t.Fatal(err)
			}
			cn, err := SealBlocked(context.Background(), c, buf, tc.bound, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			open := func() {
				if _, err := OpenBlocked(context.Background(), cn, 1); err != nil {
					t.Fatal(err)
				}
			}
			open() // warm the pools; first iteration pays one-time priming
			if got := testing.AllocsPerRun(20, open); got > tc.budget {
				t.Errorf("blocked open of %s costs %.0f allocs/op, budget %.0f — per-block scratch is being allocated again", tc.codec, got, tc.budget)
			}
		})
	}
}
