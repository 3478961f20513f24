package pressio

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/sz"
)

// reconFields are the fields a reconstructing codec is held to: the
// root package's 16×12×10 testField, the conformance field at ranks 1–4,
// and the stream pins' field with NaN and ±Inf.
func reconFields(t *testing.T, dt container.DType) []namedBuffer {
	t.Helper()
	shape := grid.MustDims(16, 12, 10)
	smooth := make([]float64, 0, shape.Len())
	for z := 0; z < shape[0]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[2]; x++ {
				smooth = append(smooth, 20*math.Sin(float64(z)/4)*math.Cos(float64(y)/5)+float64(x)/10)
			}
		}
	}
	fields := []namedBuffer{{"testField", bufferAt(t, smooth, shape, dt)}}
	for _, s := range conformanceShapes {
		fields = append(fields, namedBuffer{fmt.Sprintf("conformance%v", s), conformanceField(t, s, dt)})
	}
	return append(fields, namedBuffer{"nonFinite", bufferAt(t, pinField[float64](pinShape, true), pinShape, dt)})
}

type namedBuffer struct {
	name string
	buf  Buffer
}

// bufferAt builds a buffer of the given width from float64 values.
func bufferAt(t *testing.T, f64 []float64, shape grid.Dims, dt container.DType) Buffer {
	t.Helper()
	var buf Buffer
	var err error
	if dt == container.Float64 {
		buf, err = NewBufferOf(f64, shape)
	} else {
		f32 := make([]float32, len(f64))
		for i, v := range f64 {
			f32[i] = float32(v)
		}
		buf, err = NewBufferOf(f32, shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestReconstructionIsTheDecode holds every codec whose descriptor says it
// Reconstructs to what a quality evaluation relies on when it skips the
// decode, at both widths, at every bound of the list its domain admits: the
// reconstruction its Encode writes is Decompress's output bit for bit, the
// stream is plain Compress's byte for byte, and the evaluator's Report is
// Compress → Decompress → Evaluate's, field for field. A parameter that
// counts bits takes its list from its own domain, up to the element width.
func TestReconstructionIsTheDecode(t *testing.T) {
	ran := 0
	for _, c := range Codecs() {
		if !c.Reconstructs {
			continue
		}
		for _, dt := range []container.DType{container.Float32, container.Float64} {
			for _, f := range reconFields(t, dt) {
				buf := f.buf
				if !c.SupportsShape(buf.Shape) {
					continue
				}
				bounds := []float64{1e-6, 1e-4, 1e-2, 1, 1e2, 1e4}
				if c.Param.Unit.IsBitCount() {
					bounds = []float64{1, 4, 12, 20, 32, 64}
				}
				for _, b := range bounds {
					if c.Param.check(b, dt) != nil {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/%s/%g", c.Name, dt, f.name, b), func(t *testing.T) {
						checkReconstructionIsTheDecode(t, c, buf, c.Param.Slot(b))
					})
					ran++
				}
			}
		}
	}
	if ran == 0 {
		t.Fatal("no codec reconstructs")
	}
}

// checkReconstructionIsTheDecode is one cell of the test. A field the codec
// refuses (sz:rel on a field whose value range is not finite, blaming that
// range) must be refused by the evaluation as well.
func checkReconstructionIsTheDecode(t *testing.T, c *Codec, buf Buffer, param float64) {
	want, err := c.Compress(buf, param)
	if err != nil {
		vr := buf.ValueRange()
		if c.Name == "sz:rel" && (!errors.Is(err, sz.ErrInvalidInput) || !strings.Contains(err.Error(), fmt.Sprintf("finite value range, the field's is %v", vr))) {
			t.Errorf("sz:rel on a field of value range %v refuses with %q, want sz.ErrInvalidInput naming the range", vr, err)
		}
		if _, _, ferr := NewEvaluator(nil, c, buf).Full(param); ferr == nil {
			t.Fatalf("Compress refuses the field (%v), the evaluation does not", err)
		}
		return
	}
	dec, err := c.Decompress(want, buf.Shape, buf.dtype)
	if err != nil {
		t.Fatal(err)
	}

	recon, err := c.output(buf.Shape, buf.dtype)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recon.f32 {
		recon.f32[i] = -12345.5 // values the encoder must overwrite
	}
	for i := range recon.f64 {
		recon.f64[i] = -12345.5
	}
	in := buf
	in.recon32, in.recon64 = recon.f32, recon.f64
	got, err := c.Compress(in, param)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("the stream written with a reconstruction differs from Compress's (%d and %d bytes)", len(got), len(want))
	}
	if i := firstBitDifference(recon, dec); i >= 0 {
		t.Fatalf("value %d: the encoder reconstructs %v, Decompress writes %v", i, recon.at(i), dec.at(i))
	}

	wantRep, err := Evaluate(buf, dec, len(want))
	if err != nil {
		t.Fatal(err)
	}
	gotRep, _, err := NewEvaluator(nil, c, buf).Full(param)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFields(gotRep, wantRep) {
		t.Fatalf("the evaluator reports\n%+v\nCompress → Decompress → Evaluate reports\n%+v", gotRep, wantRep)
	}
}

// at returns value i, whatever the width.
func (b Buffer) at(i int) float64 {
	if b.dtype == container.Float64 {
		return b.f64[i]
	}
	return float64(b.f32[i])
}

// firstBitDifference returns the first index at which two buffers of one
// width hold different bit patterns, or -1.
func firstBitDifference(a, b Buffer) int {
	ra, rb := a.RawBytes(), b.RawBytes()
	for i := range ra {
		if ra[i] != rb[i] {
			return i / a.dtype.Size()
		}
	}
	return -1
}

// sameFields reports whether two structs hold the same bits in every field,
// a NaN matching any NaN (so 0 does not equal −0).
func sameFields(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Float64:
			if x, y := fa.Float(), fb.Float(); math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		case reflect.Int:
			if fa.Int() != fb.Int() {
				return false
			}
		default:
			panic("sameFields: unexpected field kind " + fa.Kind().String())
		}
	}
	return true
}
