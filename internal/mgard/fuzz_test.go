package mgard

import (
	"testing"

	"fraz/internal/grid"
)

// fuzzMaxValues keeps one fuzz execution small: a stream of all-predictable
// codes legitimately decodes to thousands of values per byte, and the fuzzer
// has nothing to learn from the big ones that it cannot learn from these.
const fuzzMaxValues = 1 << 16

// fuzzSeeds adds valid streams of both supported ranks at element type T,
// under both norms, one with its rank byte set to 1 (which must be refused),
// plus the two hostile streams of the corruption table.
func fuzzSeeds[T grid.Float](f *testing.F) {
	for _, shape := range []grid.Dims{grid.MustDims(14, 15), grid.MustDims(7, 8, 9)} {
		data := make([]T, shape.Len())
		for i := range data {
			data[i] = T(i%13)/8 + T(i)/64
		}
		for _, o := range []Options{{Norm: NormInfinity, Bound: 1e-2}, {Norm: NormL2, Bound: 1e-9}} {
			comp, err := Compress(data, shape, o)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(comp)
		}
	}
	valid, forged, bomb := hostileStreams[T](f, 1<<20)
	rank1 := append([]byte(nil), valid...)
	rank1[6] = 1
	f.Add(rank1)
	f.Add(forged)
	f.Add(bomb)
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
