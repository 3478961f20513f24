package dataset

import (
	"math"
	"path/filepath"
	"testing"

	"fraz/internal/grid"
	"fraz/internal/metrics"
	"fraz/internal/sz"
)

func TestNamesAndNew(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("expected 5 applications, got %d", len(names))
	}
	for _, n := range names {
		d, err := New(n, ScaleTiny)
		if err != nil {
			t.Fatalf("New(%s): %v", n, err)
		}
		if d.Name != n {
			t.Errorf("name mismatch: %s vs %s", d.Name, n)
		}
		if d.TimeSteps <= 0 || len(d.Fields) == 0 {
			t.Errorf("%s: empty dataset descriptor %+v", n, d)
		}
	}
	if _, err := New("Unknown", ScaleTiny); err == nil {
		t.Errorf("unknown application should fail")
	}
}

func TestTableIIIStructure(t *testing.T) {
	// Dimensionality, field counts, and time-step counts follow the paper's
	// Table III.
	want := map[string]struct {
		ndims     int
		fields    int
		timeSteps int
	}{
		"Hurricane": {3, 13, 48},
		"HACC":      {1, 6, 101},
		"CESM":      {2, 6, 62},
		"EXAALT":    {1, 3, 82},
		"NYX":       {3, 5, 8},
	}
	for name, w := range want {
		d, err := New(name, ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Fields) != w.fields {
			t.Errorf("%s: %d fields, want %d", name, len(d.Fields), w.fields)
		}
		if d.TimeSteps != w.timeSteps {
			t.Errorf("%s: %d time-steps, want %d", name, d.TimeSteps, w.timeSteps)
		}
		for _, f := range d.Fields {
			if f.Shape.NDims() != w.ndims {
				t.Errorf("%s/%s: rank %d, want %d", name, f.Name, f.Shape.NDims(), w.ndims)
			}
		}
	}
}

func TestAll(t *testing.T) {
	ds := All(ScaleTiny)
	if len(ds) != 5 {
		t.Fatalf("All returned %d datasets", len(ds))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d, err := New("Hurricane", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	a, shapeA, err := d.Generate("TCf", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, shapeB, err := d.Generate("TCf", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !shapeA.Equal(shapeB) {
		t.Fatalf("shapes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation is not deterministic at %d", i)
		}
	}
}

func TestGenerateDiffersAcrossTimeAndFields(t *testing.T) {
	d, err := New("NYX", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := d.Generate("temperature", 0)
	b, _, _ := d.Generate("temperature", 5)
	c, _, _ := d.Generate("baryon_density", 0)
	if metrics.RMSE(a, b) == 0 {
		t.Errorf("different time-steps should differ")
	}
	if metrics.RMSE(a, c) == 0 {
		t.Errorf("different fields should differ")
	}
}

func TestGenerateErrors(t *testing.T) {
	d, err := New("CESM", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Generate("NOPE", 0); err == nil {
		t.Errorf("unknown field should fail")
	}
	if _, _, err := d.Generate("CLOUD", -1); err == nil {
		t.Errorf("negative time-step should fail")
	}
	if _, _, err := d.Generate("CLOUD", d.TimeSteps); err == nil {
		t.Errorf("out-of-range time-step should fail")
	}
}

func TestFieldNamesAndLookup(t *testing.T) {
	d, _ := New("HACC", ScaleTiny)
	names := d.FieldNames()
	if len(names) != 6 {
		t.Fatalf("HACC should have 6 fields")
	}
	f, err := d.Field("vx")
	if err != nil || f.Name != "vx" {
		t.Errorf("Field lookup failed: %v", err)
	}
	if _, err := d.Field("bogus"); err == nil {
		t.Errorf("unknown field should fail")
	}
}

func TestAllFieldsFiniteAndNonConstant(t *testing.T) {
	for _, d := range All(ScaleTiny) {
		for _, f := range d.Fields {
			for _, ts := range []int{0, d.TimeSteps / 2, d.TimeSteps - 1} {
				data, shape, err := d.Generate(f.Name, ts)
				if err != nil {
					t.Fatalf("%s/%s t=%d: %v", d.Name, f.Name, ts, err)
				}
				if len(data) != shape.Len() {
					t.Fatalf("%s/%s: data length %d != shape %v", d.Name, f.Name, len(data), shape)
				}
				var hasVariation bool
				for i, v := range data {
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						t.Fatalf("%s/%s t=%d: non-finite value at %d", d.Name, f.Name, ts, i)
					}
					if i > 0 && v != data[0] {
						hasVariation = true
					}
				}
				if !hasVariation {
					t.Errorf("%s/%s t=%d: field is constant", d.Name, f.Name, ts)
				}
			}
		}
	}
}

func TestTimeEvolutionIsCoherent(t *testing.T) {
	// Consecutive time-steps should be much closer to each other than
	// distant ones, so that FRaZ's bound-reuse optimization pays off.
	d, _ := New("Hurricane", ScaleTiny)
	a, _, _ := d.Generate("TCf", 10)
	b, _, _ := d.Generate("TCf", 11)
	far, _, _ := d.Generate("TCf", 40)
	nearDiff := metrics.RMSE(a, b)
	farDiff := metrics.RMSE(a, far)
	if !(nearDiff < farDiff) {
		t.Errorf("adjacent steps (RMSE %v) should be closer than distant ones (RMSE %v)", nearDiff, farDiff)
	}
}

func TestScalesChangeResolution(t *testing.T) {
	tiny, _ := New("NYX", ScaleTiny)
	small, _ := New("NYX", ScaleSmall)
	medium, _ := New("NYX", ScaleMedium)
	if !(tiny.Fields[0].Shape.Len() < small.Fields[0].Shape.Len()) ||
		!(small.Fields[0].Shape.Len() < medium.Fields[0].Shape.Len()) {
		t.Errorf("scales should increase resolution: %v %v %v",
			tiny.Fields[0].Shape, small.Fields[0].Shape, medium.Fields[0].Shape)
	}
	if ScaleTiny.String() != "tiny" || ScaleSmall.String() != "small" || ScaleMedium.String() != "medium" {
		t.Errorf("scale names wrong")
	}
	if Scale(9).String() == "" {
		t.Errorf("unknown scale string should not be empty")
	}
}

func TestTotalValuesAndBytes(t *testing.T) {
	d, _ := New("EXAALT", ScaleTiny)
	want := 0
	for _, f := range d.Fields {
		want += f.Shape.Len() * d.TimeSteps
	}
	if d.TotalValues() != want {
		t.Errorf("TotalValues = %d, want %d", d.TotalValues(), want)
	}
	if d.TotalBytes() != want*4 {
		t.Errorf("TotalBytes = %d, want %d", d.TotalBytes(), want*4)
	}
}

func TestHurricaneLogCloudHasFloor(t *testing.T) {
	// The QCLOUDf.log10 field should show the characteristic flat floor at
	// -30 plus plume values well above it, which is what makes its
	// ratio-versus-bound curve spiky for SZ (paper Fig. 3).
	d, _ := New("Hurricane", ScaleSmall)
	data, _, err := d.Generate("QCLOUDf.log10", 20)
	if err != nil {
		t.Fatal(err)
	}
	floor, above := 0, 0
	for _, v := range data {
		if v == -30 {
			floor++
		} else {
			above++
		}
	}
	if floor == 0 || above == 0 {
		t.Errorf("log cloud field should mix floor (%d) and plume (%d) values", floor, above)
	}
}

func TestCESMCloudFractionBounded(t *testing.T) {
	d, _ := New("CESM", ScaleTiny)
	for _, field := range []string{"CLDHGH", "CLDLOW", "CLOUD", "FREQSH"} {
		data, _, err := d.Generate(field, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range data {
			if v < 0 || v > 1 {
				t.Fatalf("%s[%d] = %v outside [0,1]", field, i, v)
			}
		}
	}
}

func TestHACCPositionsInsideBox(t *testing.T) {
	d, _ := New("HACC", ScaleTiny)
	for _, field := range []string{"x", "y", "z"} {
		data, _, err := d.Generate(field, 50)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range data {
			if v < 0 || v >= 257 {
				t.Fatalf("%s[%d] = %v outside the simulation box", field, i, v)
			}
		}
	}
}

func TestFieldsAreCompressible(t *testing.T) {
	// Sanity check that the synthetic fields behave like scientific data:
	// an error-bounded compressor achieves a useful ratio at a moderate
	// relative bound.
	d, _ := New("Hurricane", ScaleTiny)
	data, shape, err := d.Generate("TCf", 0)
	if err != nil {
		t.Fatal(err)
	}
	vr := grid.ValueRange(data)
	comp, err := sz.Compress(data, shape, sz.Options{ErrorBound: vr * 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if cr := metrics.CompressionRatio(len(data)*4, len(comp)); cr < 3 {
		t.Errorf("TCf should compress at least 3:1 at 1e-3 relative bound, got %.2f", cr)
	}
}

func TestWriteReadRawRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "field.f32")
	data := []float32{1.5, -2.25, 3.75, 0, 1e-30, 1e30}
	if err := WriteRaw(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRaw[float32](path, grid.MustDims(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("raw round trip mismatch at %d: %v vs %v", i, got[i], data[i])
		}
	}
	if _, err := ReadRaw[float32](path, grid.MustDims(5)); err == nil {
		t.Errorf("length mismatch should fail")
	}
	if _, err := ReadRaw[float32](filepath.Join(dir, "missing.f32"), grid.MustDims(6)); err == nil {
		t.Errorf("missing file should fail")
	}
}

func TestExport(t *testing.T) {
	dir := t.TempDir()
	d, _ := New("NYX", ScaleTiny)
	// Restrict to a cheap subset: temperature only, 2 time-steps.
	d.Fields = d.Fields[:1]
	d.TimeSteps = 2
	n, err := Export(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("expected 2 files, wrote %d", n)
	}
	got, err := ReadRaw[float32](filepath.Join(dir, "NYX", "temperature_t000.f32"), d.Fields[0].Shape)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := d.Generate("temperature", 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("exported data mismatch at %d", i)
		}
	}
}
