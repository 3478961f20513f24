package fraz_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"fraz"
	"fraz/internal/dataset"
)

func tinyField(t testing.TB) ([]float32, []int) {
	t.Helper()
	d, err := dataset.New("Hurricane", dataset.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	data, shape, err := d.Generate("TCf", 0)
	if err != nil {
		t.Fatal(err)
	}
	return data, []int(shape)
}

func TestObjectiveConstructorsValidate(t *testing.T) {
	bad := []fraz.Option{
		fraz.TargetPSNR(0),
		fraz.TargetPSNR(math.NaN()),
		fraz.TargetSSIM(0),
		fraz.TargetSSIM(1.5),
		fraz.TargetMaxError(0),
		fraz.TargetMaxError(math.Inf(1)),
		fraz.Target(fraz.Objective{}),
		fraz.Target(fraz.FixedPSNR(60).WithTolerance(-1)),
	}
	for i, opt := range bad {
		if _, err := fraz.New("sz:abs", opt); err == nil {
			t.Errorf("case %d: New accepted an invalid objective option", i)
		}
	}
	good := []fraz.Option{
		fraz.TargetPSNR(60),
		fraz.TargetSSIM(0.9),
		fraz.TargetMaxError(0.05),
		fraz.Target(fraz.FixedMaxError(100).WithTolerance(5)),
	}
	for i, opt := range good {
		if _, err := fraz.New("sz:abs", opt); err != nil {
			t.Errorf("case %d: New rejected a valid objective option: %v", i, err)
		}
	}
}

func TestObjectiveAccessors(t *testing.T) {
	o := fraz.FixedPSNR(60)
	if o.Name() != "psnr" || o.Target() != 60 {
		t.Errorf("accessors: name=%q target=%v", o.Name(), o.Target())
	}
	lo, hi := o.Band()
	if math.Abs(lo-57) > 1e-9 || math.Abs(hi-63) > 1e-9 {
		t.Errorf("default PSNR band = [%v, %v], want [57, 63]", lo, hi)
	}
	lo, hi = fraz.FixedSSIM(0.95).Band()
	if math.Abs(lo-0.93) > 1e-9 || math.Abs(hi-0.97) > 1e-9 {
		t.Errorf("default SSIM band = [%v, %v], want [0.93, 0.97]", lo, hi)
	}
	if _, err := fraz.ObjectiveByName("nope", 1); err == nil {
		t.Errorf("ObjectiveByName accepted an unknown name")
	}
	if o, err := fraz.ObjectiveByName("max-error", 0.5); err != nil || o.Name() != "max-error" {
		t.Errorf("ObjectiveByName(max-error) = %v, %v", o, err)
	}
}

// TestCompressPSNRTargetEndToEnd is the acceptance path: a PSNR-targeted
// client compresses through the public API, the archive records the
// objective, and re-measuring the promise on the decompressed data lands in
// the recorded band.
func TestCompressPSNRTargetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	data, shape := tinyField(t)
	c, err := fraz.New("sz:abs", fraz.TargetPSNR(60), fraz.Regions(4), fraz.Seed(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := c.Compress(context.Background(), &buf, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != "psnr" || res.Target != 60 {
		t.Errorf("CompressResult objective = %q target %v", res.Objective, res.Target)
	}
	if res.AchievedValue < 57 || res.AchievedValue > 63 {
		t.Errorf("achieved PSNR %v outside the default band", res.AchievedValue)
	}

	dec, err := fraz.DecompressFull(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Objective == nil {
		t.Fatal("decompressed archive carries no objective record")
	}
	rec := *dec.Objective
	if rec.Name != "psnr" || rec.Target != 60 {
		t.Errorf("recorded objective = %+v", rec)
	}
	if !rec.InBand(rec.Achieved) {
		t.Errorf("recorded achieved %v outside recorded band target %v ± %v", rec.Achieved, rec.Target, rec.Tolerance)
	}
	obj, err := fraz.ObjectiveByName(rec.Name, rec.Target)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := obj.Measure(data, dec.Data, dec.Shape, dec.CompressedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(measured-rec.Achieved) > 1e-6*math.Max(1, math.Abs(rec.Achieved)) {
		t.Errorf("re-measured PSNR %v differs from recorded %v", measured, rec.Achieved)
	}
}

// TestRatioArchivesStayByteCompatible pins that ratio-targeted archives do
// not grow the objective extension: their bytes must be what pre-extension
// builds wrote (the promise already lives in the header's ratio field).
func TestRatioArchivesStayByteCompatible(t *testing.T) {
	data, shape := tinyField(t)
	var buf bytes.Buffer
	res, err := fraz.Compress(context.Background(), &buf, data, shape,
		fraz.Ratio(8), fraz.Seed(1), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != "ratio" || res.Target != 8 || res.AchievedValue != res.Ratio {
		t.Errorf("ratio CompressResult objective fields: %+v", res)
	}
	dec, err := fraz.DecompressFull(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Objective != nil {
		t.Errorf("ratio archive recorded an objective extension: %+v", dec.Objective)
	}
	// The rank byte (offset 7) must carry no extension flag.
	if b := buf.Bytes()[7]; b&0x80 != 0 {
		t.Errorf("ratio archive rank byte = %#x, extension flag set", b)
	}
}

// TestObjectiveRoundTripProperty is the cross-codec property test: for every
// built-in objective and every registered codec that can express it, a
// feasible tune's achieved value read back from the container header matches
// an independent re-measurement of the decompressed data.
func TestObjectiveRoundTripProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes every codec × objective combination")
	}
	data, shape := tinyField(t)
	objectives := []struct {
		name string
		opt  fraz.Option
	}{
		{"psnr", fraz.TargetPSNR(55)},
		{"ssim", fraz.Target(fraz.FixedSSIM(0.9).WithTolerance(0.05))},
		{"max-error", fraz.TargetMaxError(0.02)},
	}
	feasibleCombos := 0
	for _, ci := range fraz.Codecs() {
		if !ci.SupportsRank(len(shape)) {
			continue
		}
		for _, obj := range objectives {
			t.Run(ci.Name+"/"+obj.name, func(t *testing.T) {
				c, err := fraz.New(ci.Name, obj.opt, fraz.Regions(3), fraz.Seed(2), fraz.Workers(2))
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				_, err = c.Compress(context.Background(), &buf, data, shape)
				if errors.Is(err, fraz.ErrInfeasible) {
					t.Skipf("%s cannot express %s on this field", ci.Name, obj.name)
				}
				if err != nil {
					// Some codec/objective pairs cannot even search (e.g. a
					// rate-mode codec whose parameter range excludes the
					// field's value range); that is a skip, not a failure.
					t.Skipf("%s/%s: %v", ci.Name, obj.name, err)
				}
				dec, err := fraz.DecompressFull(context.Background(), &buf)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Objective == nil {
					t.Fatal("archive carries no objective record")
				}
				rec := *dec.Objective
				if rec.Name != obj.name {
					t.Fatalf("recorded objective %q, want %q", rec.Name, obj.name)
				}
				o, err := fraz.ObjectiveByName(rec.Name, rec.Target)
				if err != nil {
					t.Fatal(err)
				}
				measured, err := o.Measure(data, dec.Data, dec.Shape, dec.CompressedBytes)
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-6 * math.Max(1, math.Abs(rec.Achieved))
				if math.Abs(measured-rec.Achieved) > tol {
					t.Errorf("re-measured %s %v differs from recorded %v", rec.Name, measured, rec.Achieved)
				}
				if !rec.InBand(rec.Achieved) {
					t.Errorf("feasible archive's achieved %v outside its recorded band", rec.Achieved)
				}
				feasibleCombos++
			})
		}
	}
	if feasibleCombos < 4 {
		t.Errorf("only %d codec×objective combinations were feasible; expected at least 4", feasibleCombos)
	}
}

// TestQualitySeriesServedFromCache pins the acceptance criterion that
// quality evaluations are served from the shared cache: a TuneSeries over
// identical steps must record cache hits (the prediction probe of step 2+
// re-measures step 1's bound on identical data).
func TestQualitySeriesServedFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("quality tuning compresses and decompresses repeatedly")
	}
	data, shape := tinyField(t)
	c, err := fraz.New("sz:abs", fraz.TargetPSNR(60), fraz.Regions(4), fraz.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.TuneSeries(context.Background(), fraz.Series{
		Name:  "Hurricane/TCf",
		Steps: 3,
		At: func(int) ([]float32, []int, error) {
			return data, shape, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Errorf("quality TuneSeries recorded no cache hits (evaluations=%d)", res.Evaluations)
	}
	retrains := 0
	for _, st := range res.Steps {
		if st.Objective != "psnr" {
			t.Errorf("step objective = %q", st.Objective)
		}
		if !st.UsedPrediction {
			retrains++
		}
	}
	if retrains != 1 {
		t.Errorf("identical steps should reuse the tuned bound: %d retrains", retrains)
	}
}
