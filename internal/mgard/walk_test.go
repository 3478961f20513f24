package mgard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fraz/internal/grid"
)

// refTap and refAxisTaps are the per-node taps of the generic walk, kept
// with it as the reference walkLevel's row kernels are checked against.
type refTap struct {
	at  int
	odd bool
	n   int
	off [2]int
	w   [2]float64
}

func refAxisTaps(extent, stride, s int) []refTap {
	taps := make([]refTap, (extent-1)/s+1)
	for j := range taps {
		c := j * s
		t := refTap{at: c * stride, odd: j%2 == 1, n: 1, off: [2]int{c * stride}, w: [2]float64{1}}
		if t.odd {
			t.off[0] = (c - s) * stride
			if c+s < extent {
				t.n, t.off[1], t.w = 2, (c+s)*stride, [2]float64{0.5, 0.5}
			}
		}
		taps[j] = t
	}
	return taps
}

// refWalkLevel is the generic level walk: every node of the level, one tap
// per axis, and the interpolation summed from zero over every (a, b, c) tap
// triple with the weights multiplied slowest axis first. It is the walk
// the row kernels replaced, with one change: its three additions name
// their NaN rule through firstNaN. Compiled as plain float operations,
// which of two NaNs an addition keeps follows the operand order the
// compiler picks, and that order differs in a race, coverage-guided fuzz
// or -N build; the optimised build of the old walk kept the first
// operand's, which is firstNaN's rule. The stream pins' non-finite mgard
// rows (internal/pressio), generated by the old walk, hold the rule to it.
func refWalkLevel(work []float64, shape grid.Dims, s int, inverse bool) {
	ext, stride := [3]int{1, 1, 1}, [3]int{}
	copy(ext[3-len(shape):], shape)
	copy(stride[3-len(shape):], shape.Strides())
	taps0, taps1, taps2 := refAxisTaps(ext[0], stride[0], s), refAxisTaps(ext[1], stride[1], s), refAxisTaps(ext[2], stride[2], s)
	for _, ta := range taps0 {
		for _, tb := range taps1 {
			for _, tc := range taps2 {
				if !(ta.odd || tb.odd || tc.odd) {
					continue
				}
				var sum float64
				for a := 0; a < ta.n; a++ {
					for b := 0; b < tb.n; b++ {
						wab := ta.w[a] * tb.w[b]
						base := ta.off[a] + tb.off[b]
						for c := 0; c < tc.n; c++ {
							sum = firstNaN(sum, float64(wab*tc.w[c]*work[base+tc.off[c]]), false)
						}
					}
				}
				if off := ta.at + tb.at + tc.at; inverse {
					work[off] = firstNaN(sum, work[off], false)
				} else {
					work[off] = firstNaN(work[off], sum, true)
				}
			}
		}
	}
}

// walkField fills a field of n values from seed: smooth values with, at
// the given rate out of 256, the values the walk's arithmetic treats
// specially — zeros of both signs, subnormals, NaN and infinities of both
// signs.
func walkField(n int, seed int64, rate uint8) []float64 {
	rng := rand.New(rand.NewSource(seed))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030, math.NaN(), math.Inf(1), math.Inf(-1)}
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(256) < int(rate) {
			out[i] = specials[rng.Intn(len(specials))]
			continue
		}
		out[i] = 40*math.Sin(float64(i)/7) + rng.NormFloat64()
	}
	return out
}

// checkWalk runs every level of the forward and then the inverse walk on
// two copies of data, one through walkLevel and one through refWalkLevel,
// and fails at the first level after which the two differ in any bit.
func checkWalk(t *testing.T, data []float64, shape grid.Dims) {
	t.Helper()
	got, want := append([]float64(nil), data...), append([]float64(nil), data...)
	levels := numLevels(shape)
	step := func(s int, inverse bool) {
		walkLevel(got, shape, s, inverse)
		refWalkLevel(want, shape, s, inverse)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("shape %v, stride %d, inverse %v: value %d is %v (%#x), the reference walk gives %v (%#x)",
					shape, s, inverse, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for l := 0; l < levels; l++ {
		step(1<<l, false)
	}
	for l := levels - 1; l >= 0; l-- {
		step(1<<l, true)
	}
}

// TestWalkMatchesReference requires the row kernels to leave the same bits
// as the generic walk, in both directions, at ranks 2 and 3, on extents
// that change the tap pattern (1–9, 2^k and 2^k±1) and on fields holding
// signed zeros, subnormals, NaN and infinities.
func TestWalkMatchesReference(t *testing.T) {
	wide := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65}
	narrow := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17}
	var shapes []grid.Dims
	for _, y := range wide {
		for _, x := range wide {
			shapes = append(shapes, grid.MustDims(y, x))
		}
	}
	for _, z := range narrow {
		for _, y := range narrow {
			for _, x := range narrow {
				shapes = append(shapes, grid.MustDims(z, y, x))
			}
		}
	}
	if testing.Short() {
		shapes = shapes[:len(wide)*len(wide)]
	}
	for i, shape := range shapes {
		for _, rate := range []uint8{0, 24} {
			t.Run(fmt.Sprintf("%v/specials%d", shape, rate), func(t *testing.T) {
				checkWalk(t, walkField(shape.Len(), int64(i), rate), shape)
			})
		}
		// All −0: every interpolation is a sum of −0 terms, +0 only because
		// it starts from +0, and the node keeps its sign only if it does.
		t.Run(fmt.Sprintf("%v/negzero", shape), func(t *testing.T) {
			data := make([]float64, shape.Len())
			for j := range data {
				data[j] = math.Copysign(0, -1)
			}
			checkWalk(t, data, shape)
		})
	}
}

// FuzzWalk is TestWalkMatchesReference on a shape, a field and a rate of
// special values drawn by the fuzzer: rank 3 when rank3 is set, extents
// 1–33. Its seeds are in testdata/fuzz/FuzzWalk.
func FuzzWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, rank3 bool, e0, e1, e2, rate uint8) {
		ext := func(e uint8) int { return 1 + int(e)%33 }
		shape := grid.MustDims(ext(e1), ext(e2))
		if rank3 {
			shape = grid.MustDims(ext(e0), ext(e1), ext(e2))
		}
		checkWalk(t, walkField(shape.Len(), seed, rate), shape)
	})
}
