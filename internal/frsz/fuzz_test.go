package frsz

import (
	"math"
	"testing"

	"fraz/internal/grid"
)

// FuzzDecode drives hostile byte streams through both decoder widths. The
// decoder must either reject with an error or return a well-formed, finite
// field whose re-compression at the header's rate reproduces the exact
// fixed-rate size — it must never panic, allocate unboundedly, or emit
// NaN/Inf values.
func FuzzDecode(f *testing.F) {
	// Seed with valid streams of both widths plus systematic damage so the
	// fuzzer starts inside the format, not at random noise.
	f32 := make([]float32, 96)
	f64 := make([]float64, 96)
	for i := range f32 {
		v := math.Sin(float64(i) / 5)
		f32[i], f64[i] = float32(v), v
	}
	shape := grid.MustDims(8, 12)
	for _, bits := range []int{1, 7, 16, 32} {
		s, err := Compress(f32, shape, Options{BitsPerValue: bits, BlockSize: 32})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
		f.Add(s[:len(s)/2])
		damaged := append([]byte(nil), s...)
		damaged[len(damaged)/2] ^= 0x55
		f.Add(damaged)
	}
	s64, err := Compress(f64, shape, Options{BitsPerValue: 13})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(s64)
	f.Add(s64[:fixedHeaderLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, width := range []int{4, 8} {
			if width == 4 {
				checkDecode[float32](t, stream)
			} else {
				checkDecode[float64](t, stream)
			}
		}
	})
}

func checkDecode[T grid.Float](t *testing.T, stream []byte) {
	h, _, err := parseHeader(stream)
	if err != nil {
		return
	}
	shape := h.shape
	out := make([]T, shape.Len())
	if err := DecompressInto(out, stream, shape); err != nil {
		return
	}
	bits := int(stream[5])
	for i, v := range out {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("element %d decoded non-finite %v", i, v)
		}
	}
	// A decodable stream re-encodes to the same fixed-rate size.
	blockSize := int(uint32(stream[6]) | uint32(stream[7])<<8 | uint32(stream[8])<<16 | uint32(stream[9])<<24)
	if want := CompressedSize(shape.Len(), shape.NDims(), bits, blockSize); len(stream) != want {
		t.Fatalf("valid stream is %d bytes, CompressedSize promises %d", len(stream), want)
	}
}
