package grid

import (
	"bytes"
	"math"
	"testing"
)

func TestLittleEndianRoundTrip(t *testing.T) {
	f32 := []float32{0, float32(math.Copysign(0, -1)), 1.5, -math.MaxFloat32, float32(math.Inf(1)), math.Float32frombits(0x7fc00123)}
	enc := AppendLE([]byte{0xAA}, f32)
	want := []byte{0xAA, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0xC0, 0x3F}
	if !bytes.Equal(enc[:len(want)], want) {
		t.Fatalf("float32 encoding starts % x, want % x", enc[:len(want)], want)
	}
	got := make([]float32, len(f32))
	DecodeLE(got, enc[1:])
	for i := range f32 {
		if math.Float32bits(got[i]) != math.Float32bits(f32[i]) {
			t.Errorf("float32 element %d: %x decoded as %x", i, math.Float32bits(f32[i]), math.Float32bits(got[i]))
		}
	}

	f64 := []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.Inf(-1), math.Float64frombits(0x7ff8000000000abc)}
	enc = AppendLE(nil, f64)
	if len(enc) != 8*len(f64) || !bytes.Equal(enc[16:24], []byte{0, 0, 0, 0, 0, 0, 0xF8, 0x3F}) {
		t.Fatalf("float64 encoding of 1.5 is % x", enc[16:24])
	}
	got64 := make([]float64, len(f64))
	DecodeLE(got64, enc)
	for i := range f64 {
		if math.Float64bits(got64[i]) != math.Float64bits(f64[i]) {
			t.Errorf("float64 element %d: %x decoded as %x", i, math.Float64bits(f64[i]), math.Float64bits(got64[i]))
		}
	}
}

func TestAppendLEGrowsOnce(t *testing.T) {
	dst := make([]byte, 4, 4+8*100)
	out := AppendLE(dst, make([]float64, 100))
	if &out[0] != &dst[0] {
		t.Error("AppendLE reallocated a destination that had the capacity")
	}
}

func TestBitsIsAView(t *testing.T) {
	f32 := []float32{1, -2, float32(math.NaN())}
	w32 := Bits[float32, uint32](f32)
	for i, v := range f32 {
		if w32[i] != math.Float32bits(v) {
			t.Errorf("word %d is %x, want %x", i, w32[i], math.Float32bits(v))
		}
	}
	w32[0] = math.Float32bits(8.5)
	if f32[0] != 8.5 {
		t.Errorf("a store through the view did not reach the slice: %v", f32[0])
	}
	f64 := []float64{math.Pi}
	if Bits[float64, uint64](f64)[0] != math.Float64bits(math.Pi) {
		t.Error("float64 view disagrees with math.Float64bits")
	}
	if len(Bits[float64, uint64](nil)) != 0 {
		t.Error("view of an empty slice is not empty")
	}
	defer func() {
		if recover() == nil {
			t.Error("a word of the wrong width was accepted")
		}
	}()
	Bits[float32, uint64](f32)
}

func TestExponentField(t *testing.T) {
	if m := ExpMask[uint32](); m != 0x7f800000 {
		t.Errorf("float32 exponent mask %#x", m)
	}
	if m := ExpMask[uint64](); m != 0x7ff0000000000000 {
		t.Errorf("float64 exponent mask %#x", m)
	}
}
