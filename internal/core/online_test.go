package core

import (
	"context"
	"math"
	"testing"

	"fraz/internal/pressio"
)

func onlineFake() *pressio.Codec {
	return fake("fake", smoothRatio, nil)
}

func TestNewOnlineTunerValidation(t *testing.T) {
	tu, err := NewTuner(onlineFake(), Config{TargetRatio: 20, MaxError: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnlineTuner(nil, OnlineConfig{}); err == nil {
		t.Errorf("nil tuner should fail")
	}
	if _, err := NewOnlineTuner(tu, OnlineConfig{Smoothing: 2}); err == nil {
		t.Errorf("smoothing > 1 should fail")
	}
	if _, err := NewOnlineTuner(tu, OnlineConfig{Smoothing: -0.1}); err == nil {
		t.Errorf("negative smoothing should fail")
	}
	if _, err := NewOnlineTuner(tu, OnlineConfig{RetrainAfterMisses: -1}); err == nil {
		t.Errorf("negative retrain-after-misses should fail")
	}
	ot, err := NewOnlineTuner(tu, OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ot.CurrentBound() != 0 {
		t.Errorf("initial bound should be zero")
	}
}

func TestOnlineTunerReusesBoundAcrossAcquisitions(t *testing.T) {
	tu, err := NewTuner(onlineFake(), Config{TargetRatio: 20, Tolerance: 0.1, MaxError: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ot, err := NewOnlineTuner(tu, OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(2048)
	for i := 0; i < 5; i++ {
		res, err := ot.Process(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Compressed) == 0 {
			t.Fatalf("acquisition %d produced no compressed output", i)
		}
		if i > 0 && !res.Reused {
			t.Errorf("acquisition %d should reuse the bound for identical data", i)
		}
	}
	stats := ot.Stats()
	if stats.Acquisitions != 5 || stats.Retrained != 1 || stats.Reused != 4 {
		t.Errorf("unexpected stats %+v", stats)
	}
	if stats.Converged != 5 {
		t.Errorf("all acquisitions should converge, got %d", stats.Converged)
	}
	if ratio := stats.AggregateRatio(); math.Abs(ratio-20) > 4 {
		t.Errorf("aggregate ratio %v should be near the 20:1 target", ratio)
	}
	if stats.Elapsed <= 0 || stats.RawBytes != 5*buf.Bytes() {
		t.Errorf("volume/timing stats wrong: %+v", stats)
	}
}

func TestOnlineTunerReset(t *testing.T) {
	tu, _ := NewTuner(onlineFake(), Config{TargetRatio: 20, Tolerance: 0.1, MaxError: 2, Seed: 2})
	ot, _ := NewOnlineTuner(tu, OnlineConfig{})
	if _, err := ot.Process(context.Background(), smallBuffer(1024)); err != nil {
		t.Fatal(err)
	}
	if ot.CurrentBound() == 0 {
		t.Fatalf("bound should be set after a feasible acquisition")
	}
	ot.Reset()
	if ot.CurrentBound() != 0 || ot.Stats().Acquisitions != 0 {
		t.Errorf("Reset should clear state")
	}
}

func TestOnlineTunerRetrainAfterMisses(t *testing.T) {
	// A compressor whose ratio curve drifts every acquisition so the reused
	// bound always misses; with RetrainAfterMisses=2 the tuner tolerates two
	// misses before forcing a retrain.
	acq := 0
	drifting := fake("fake", func(bound float64) float64 {
		shift := 1.0 + float64(acq)*0.8
		return 1 + 63*bound/(bound+0.05*shift)/(2/(2+0.05*shift))
	}, nil)
	tu, err := NewTuner(drifting, Config{TargetRatio: 20, Tolerance: 0.02, MaxError: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ot, err := NewOnlineTuner(tu, OnlineConfig{RetrainAfterMisses: 2, Smoothing: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(1024)
	for i := 0; i < 6; i++ {
		acq = i
		if _, err := ot.Process(context.Background(), buf); err != nil {
			t.Fatal(err)
		}
	}
	stats := ot.Stats()
	if stats.Acquisitions != 6 {
		t.Fatalf("unexpected stats %+v", stats)
	}
	if stats.Retrained == 0 {
		t.Errorf("drifting stream should retrain at least once: %+v", stats)
	}
	if stats.AggregateRatio() <= 1 {
		t.Errorf("stream should still be compressed: %+v", stats)
	}
}

func TestOnlineStatsAggregateRatioEmpty(t *testing.T) {
	var s OnlineStats
	if s.AggregateRatio() != 0 {
		t.Errorf("empty stats should report zero ratio")
	}
}

func TestOnlineTunerWithRealCompressor(t *testing.T) {
	if testing.Short() {
		t.Skip("real-compressor online tuning is slow")
	}
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{TargetRatio: 8, Tolerance: 0.15, Seed: 4, Regions: 4, MaxIterationsPerRegion: 12})
	if err != nil {
		t.Fatal(err)
	}
	ot, err := NewOnlineTuner(tu, OnlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(8192)
	for i := 0; i < 3; i++ {
		res, err := ot.Process(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		// The compressed payload must decompress to within the bound used.
		decBuf, err := c.Decompress(res.Compressed, buf.Shape, buf.DType())
		if err != nil {
			t.Fatal(err)
		}
		dec := decBuf.Float32()
		for j := range dec {
			if diff := math.Abs(float64(dec[j]) - float64(buf.Float32()[j])); diff > res.Result.ErrorBound+1e-9 {
				t.Fatalf("acquisition %d: error %v exceeds bound %v", i, diff, res.Result.ErrorBound)
			}
		}
	}
}
