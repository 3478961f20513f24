package szx

import (
	"math"
	"testing"

	"fraz/internal/grid"
)

// FuzzDecompress feeds arbitrary bytes to the stream decoder at both element
// widths, into a field of the header's shape. The contract under test:
// DecompressInto fills it or returns an error, and never panics.
func FuzzDecompress(f *testing.F) {
	seed32 := func(data []float32, shape grid.Dims, bound float64, bs int) {
		comp, err := Compress(data, shape, Options{ErrorBound: bound, BlockSize: bs})
		if err == nil {
			f.Add(comp)
		}
	}
	seed32([]float32{1, 2, 3, 4, 5, 6, 7, 8}, grid.MustDims(8), 1e-2, 4)
	seed32(make([]float32, 300), grid.MustDims(300), 1e-3, 0)
	seed32([]float32{float32(math.NaN()), 1, float32(math.Inf(1)), 2}, grid.MustDims(4), 1e-2, 2)
	if comp64, err := Compress([]float64{3.14, 2.71, 1.41, 1.73}, grid.MustDims(2, 2), Options{ErrorBound: 1e-6}); err == nil {
		f.Add(comp64)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := parseHeader(data)
		if err != nil || h.shape.Len() > fuzzMaxValues {
			return
		}
		_ = DecompressInto(make([]float32, h.shape.Len()), data, h.shape)
		_ = DecompressInto(make([]float64, h.shape.Len()), data, h.shape)
	})
}

// fuzzMaxValues keeps one fuzz execution small: an all-constant stream
// legitimately decodes to dozens of values per byte, and the fuzzer has
// nothing to learn from the big ones that it cannot learn from these.
const fuzzMaxValues = 1 << 16
