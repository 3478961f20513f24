package pressio

import (
	"context"
	"math"
	"testing"

	"fraz/internal/grid"
)

// TestOpenBlockedAllocBudget pins the allocation count of the blocked open
// path. Per-block scratch (chunk buffers, coder working sets, DEFLATE state)
// is borrowed from internal/pool, and the output is allocated once and
// decoded into in place, so nothing is allocated per block for the output.
// Each budget is the count measured on a warm pipeline once the per-block
// output allocation was removed (four fewer than before, one per block):
// scratch leaking back to make(), or an output allocated per block again,
// trips the test. Under the race detector sync.Pool drops a quarter of its
// puts at random, so the counts are not exact there and the test skips.
func TestOpenBlockedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
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
		{"flate:lossless", 1, 46},
		{"sz:abs", 1e-3, 157},
		{"zfp:accuracy", 1e-3, 53},
		{"szx:abs", 1e-3, 17},
		{"frsz:rate", 8, 21},
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
				t.Errorf("blocked open of %s costs %.0f allocs/op, budget %.0f — per-block scratch or output is being allocated again", tc.codec, got, tc.budget)
			}
		})
	}
}
