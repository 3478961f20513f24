package fraz_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fraz"
)

// noisyField synthesises a low-coherence field: smooth structure buried
// under deterministic high-frequency noise, the kind of data where the
// predictor-based codecs lose their edge.
func noisyField() ([]float32, []int) {
	shape := []int{16, 12, 10}
	data := make([]float32, shape[0]*shape[1]*shape[2])
	rng := uint64(1)
	for i := range data {
		rng = rng*6364136223846793005 + 1442695040888963407
		noise := float64(int64(rng>>33))/float64(1<<30) - 1
		data[i] = float32(math.Sin(float64(i)/3) + 0.8*noise)
	}
	return data, shape
}

func TestAutoCompressRoundTrip(t *testing.T) {
	c, err := fraz.New(fraz.CodecAuto, fraz.TargetMaxError(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	data, shape := testField()
	var buf bytes.Buffer
	res, err := c.Compress(context.Background(), &buf, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selection == nil {
		t.Fatal("CompressResult.Selection is nil for a CodecAuto client")
	}
	if res.Selection.Codec != res.Codec {
		t.Errorf("Selection.Codec = %q but sealed codec = %q", res.Selection.Codec, res.Codec)
	}
	if res.Codec == fraz.CodecAuto {
		t.Fatalf("sealed codec is the policy name %q, want a concrete codec", res.Codec)
	}
	if len(res.Selection.Candidates) != len(fraz.Codecs()) {
		t.Errorf("Selection.Candidates covers %d codecs, want all %d", len(res.Selection.Candidates), len(fraz.Codecs()))
	}
	if len(res.Selection.Raced()) == 0 {
		t.Error("Selection.Raced() is empty — no codec competed")
	}

	out, err := c.DecompressFull(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Codec != res.Codec {
		t.Errorf("archive header names %q, compression reported %q", out.Codec, res.Codec)
	}
	if diff := maxAbsDiff(data, out.Data); diff > 1e-2+1e-3 {
		t.Errorf("max abs error %g exceeds the 1e-2 target band", diff)
	}
}

// TestAutoObjectiveReverifies is the cross-codec property test: whatever
// codec the race picks, the objective record its container carries must
// re-verify against the reconstruction — the promise survives selection.
func TestAutoObjectiveReverifies(t *testing.T) {
	fields := map[string]func() ([]float32, []int){"smooth": testField, "noisy": noisyField}
	for name, gen := range fields {
		t.Run(name, func(t *testing.T) {
			data, shape := gen()
			c, err := fraz.New(fraz.CodecAuto, fraz.TargetPSNR(55))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res, err := c.Compress(context.Background(), &buf, data, shape)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.DecompressFull(context.Background(), &buf)
			if err != nil {
				t.Fatal(err)
			}
			if out.Objective == nil {
				t.Fatalf("codec %s: quality-targeted archive carries no objective record", res.Codec)
			}
			if out.Objective.Name != "psnr" {
				t.Fatalf("objective record names %q, want psnr", out.Objective.Name)
			}
			psnr := measurePSNR(data, out.Data)
			if !out.Objective.InBand(psnr) {
				t.Errorf("codec %s: measured PSNR %.2f outside recorded band %.2f±%.2f",
					res.Codec, psnr, out.Objective.Target, out.Objective.Tolerance)
			}
			if math.Abs(psnr-out.Objective.Achieved) > 1e-6 {
				t.Errorf("codec %s: recorded achieved PSNR %.6f, re-measured %.6f", res.Codec, out.Objective.Achieved, psnr)
			}
		})
	}
}

func measurePSNR(orig, recon []float32) float64 {
	lo, hi := float64(orig[0]), float64(orig[0])
	sum := 0.0
	for i := range orig {
		v := float64(orig[i])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		d := v - float64(recon[i])
		sum += d * d
	}
	mse := sum / float64(len(orig))
	return 20*math.Log10(hi-lo) - 10*math.Log10(mse)
}

// TestAutoCapabilityFilter pins the pre-filter: on 1-D data the rank-2+
// codecs must be skipped with a reason, never raced, and the winner must
// admit rank 1. Under MaxError the bit-count codecs are skipped with the
// tuner's reason, which names their parameter, and never raced.
func TestAutoCapabilityFilter(t *testing.T) {
	data := make([]float32, 4096)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 40))
	}
	for _, tc := range []struct {
		name     string
		maxError bool
		opts     []fraz.Option
	}{
		{"ratio", false, []fraz.Option{fraz.Ratio(8), fraz.Tolerance(0.5)}},
		{"psnr under MaxError", true, []fraz.Option{fraz.TargetPSNR(40), fraz.MaxError(0.1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := fraz.New(fraz.CodecAuto, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Tune(context.Background(), data, []int{len(data)})
			if err != nil {
				t.Fatal(err)
			}
			sel := res.Selection
			if sel == nil {
				t.Fatal("TuneResult.Selection is nil")
			}
			winner, ok := fraz.LookupCodec(sel.Codec)
			if !ok || !winner.SupportsRank(1) {
				t.Fatalf("winner %q does not admit rank-1 data", sel.Codec)
			}
			for _, cand := range sel.Candidates {
				info, ok := fraz.LookupCodec(cand.Codec)
				if !ok {
					t.Fatalf("candidate %q is not a registered codec", cand.Codec)
				}
				switch {
				case !info.SupportsRank(1):
					if cand.Skipped == "" || cand.Feasible {
						t.Errorf("rank-window miss %q was raced anyway: %+v", cand.Codec, cand)
					}
				case info.Lossless:
					if !strings.Contains(cand.Skipped, "lossless") {
						t.Errorf("lossless codec %q not skipped: %+v", cand.Codec, cand)
					}
				case !info.ErrorBounded && tc.maxError:
					// MaxError cannot limit a bit count, so the tuner refuses
					// the codec before any race.
					if !strings.Contains(cand.Skipped, info.BoundName) || cand.Feasible || cand.Evaluations != 0 {
						t.Errorf("bit-count codec %q under MaxError: %+v, want skipped naming %q and never raced", cand.Codec, cand, info.BoundName)
					}
				case info.FixedRate:
					// A fixed-rate codec hits the ratio by construction, so it is
					// admitted to fixed-ratio races despite not being error-bounded.
					if cand.Skipped != "" {
						t.Errorf("fixed-rate codec %q skipped from a fixed-ratio race: %+v", cand.Codec, cand)
					}
					if cand.Evaluations != 0 {
						t.Errorf("fixed-rate codec %q tuned with %d evaluations, want 0 (direct satisfaction)", cand.Codec, cand.Evaluations)
					}
				case !info.ErrorBounded:
					if cand.Skipped == "" {
						t.Errorf("non-error-bounded codec %q raced for a fixed-ratio archive", cand.Codec)
					}
				}
			}
		})
	}
}

func TestAutoRejectsInvalidConfigs(t *testing.T) {
	if _, err := fraz.New(fraz.CodecAuto, fraz.FixedBound(1e-3)); err == nil {
		t.Error("New(CodecAuto, FixedBound) succeeded, want error")
	}
	c, err := fraz.New(fraz.CodecAuto)
	if err != nil {
		t.Fatal(err)
	}
	data, shape := testField()
	if _, err := c.Compress(context.Background(), &bytes.Buffer{}, data, shape); err == nil {
		t.Error("Compress without a target succeeded, want error")
	}
	if _, err := c.TuneSeries(context.Background(), fraz.Series{}); err == nil {
		t.Error("TuneSeries on an auto client succeeded, want error")
	}
}

// TestAutoSharedCacheAcrossCalls pins the race economics: re-compressing the
// same field must be answered mostly from the shared evaluation cache.
func TestAutoSharedCacheAcrossCalls(t *testing.T) {
	c, err := fraz.New(fraz.CodecAuto, fraz.TargetMaxError(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	data, shape := testField()
	ctx := context.Background()
	if _, err := c.Compress(ctx, &bytes.Buffer{}, data, shape); err != nil {
		t.Fatal(err)
	}
	first := c.Stats()
	if first.Misses == 0 {
		t.Fatal("first compression reported no cache misses — the race did not evaluate anything")
	}
	if _, err := c.Compress(ctx, &bytes.Buffer{}, data, shape); err != nil {
		t.Fatal(err)
	}
	second := c.Stats()
	if second.Misses != first.Misses {
		t.Errorf("re-compressing the identical field cost %d new evaluations, want 0", second.Misses-first.Misses)
	}
	if second.Hits <= first.Hits {
		t.Error("re-compression produced no cache hits")
	}
}

func TestAutoInfeasible(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New(fraz.CodecAuto, fraz.Ratio(1e9), fraz.Tolerance(0.01))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Compress(context.Background(), &bytes.Buffer{}, data, shape)
	if err == nil {
		t.Fatal("Compress at ratio 1e9 succeeded")
	}
	if !errors.Is(err, fraz.ErrInfeasible) {
		t.Errorf("error %v does not match ErrInfeasible", err)
	}
}

// TestAutoTuneReturnsTheNearestMiss: when every raced candidate misses the
// band, a CodecAuto Tune returns the nearest miss as data, as a named codec's
// Tune returns its own, with the error Compress fails with and the race's
// Selection.
func TestAutoTuneReturnsTheNearestMiss(t *testing.T) {
	data, shape := testField()
	ctx := context.Background()
	opts := []fraz.Option{fraz.Ratio(1e9), fraz.Tolerance(0.01)}
	tuner, err := fraz.New(fraz.CodecAuto, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tuner.Tune(ctx, data, shape)
	if err != nil {
		t.Fatalf("Tune = %v, want the nearest miss as a result", err)
	}
	if res.Feasible || !errors.Is(res.Err(), fraz.ErrInfeasible) {
		t.Fatalf("Tune at ratio 1e9: feasible %v, Err %v; want an infeasible result", res.Feasible, res.Err())
	}
	var inf *fraz.InfeasibleError
	if !errors.As(res.Err(), &inf) || inf.Compressor != res.Codec || inf.ClosestRatio != res.Ratio || inf.ErrorBound != res.ErrorBound {
		t.Errorf("Err() %+v does not describe the result %+v", inf, res)
	}
	if res.Selection == nil || res.Selection.Codec != res.Codec || len(res.Selection.Raced()) != 0 {
		t.Errorf("Selection %+v: want every candidate skipped and the nearest miss, %s, named", res.Selection, res.Codec)
	}
	sealer, err := fraz.New(fraz.CodecAuto, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sealer.Compress(ctx, &bytes.Buffer{}, data, shape); err == nil || err.Error() != res.Err().Error() {
		t.Errorf("Compress = %v, want the error Tune reports, %v", err, res.Err())
	}
}
