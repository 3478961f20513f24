package zfp

import (
	"testing"

	"fraz/internal/grid"
)

// fuzzMaxValues keeps one fuzz execution small: an all-zero block is one
// bit, so a stream legitimately decodes to 512 values per byte, and the
// fuzzer has nothing to learn from the big ones that it cannot learn from
// these.
const fuzzMaxValues = 1 << 16

// fuzzSeeds adds valid streams of ranks 1 to 3 at element type T in every
// mode.
func fuzzSeeds[T grid.Float](f *testing.F) {
	for _, shape := range []grid.Dims{grid.MustDims(150), grid.MustDims(14, 15), grid.MustDims(7, 8, 9)} {
		data := make([]T, shape.Len())
		for i := range data {
			data[i] = T(i%13)/8 + T(i)/64
		}
		for _, o := range []Options{
			{Mode: ModeAccuracy, Tolerance: 1e-2},
			{Mode: ModeFixedRate, Rate: 6},
			{Mode: ModeFixedPrecision, Precision: 14},
		} {
			comp, err := Compress(data, shape, o)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(comp)
		}
	}
}

// FuzzDecompress feeds arbitrary bytes to the decoder at both element
// widths, into a field of the header's shape: it fills it or returns an
// error — never a panic.
func FuzzDecompress(f *testing.F) {
	fuzzSeeds[float32](f)
	fuzzSeeds[float64](f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, _, err := parseHeader(data)
		if err != nil || h.shape.Len() > fuzzMaxValues {
			return
		}
		_ = DecompressInto(make([]float32, h.shape.Len()), data, h.shape)
		_ = DecompressInto(make([]float64, h.shape.Len()), data, h.shape)
	})
}
