package core

import (
	"context"
	"errors"
	"testing"
)

func TestResultCheck(t *testing.T) {
	feasible := Result{Feasible: true, AchievedRatio: 10}
	if err := feasible.Check(); err != nil {
		t.Fatalf("feasible result Check() = %v, want nil", err)
	}

	infeasible := Result{
		Compressor:     "fake",
		Objective:      "ratio",
		Target:         100,
		Tolerance:      0.1,
		AchievedRatio:  4.2,
		ErrorBound:     0.5,
		CompressedSize: 1234,
	}
	err := infeasible.Check()
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Check() = %v, want errors.Is ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("Check() = %T, want *InfeasibleError", err)
	}
	if ie.ClosestRatio != 4.2 || ie.TargetRatio != 100 || ie.ErrorBound != 0.5 || ie.CompressedSize != 1234 {
		t.Errorf("InfeasibleError fields not carried over: %+v", ie)
	}
	// Only the ratio objective's error names a target ratio.
	infeasible.Objective = "psnr"
	if errors.As(infeasible.Check(), &ie); ie.TargetRatio != 0 || ie.Target != 100 {
		t.Errorf("a psnr miss reads target ratio %v, target %v; want 0 and 100", ie.TargetRatio, ie.Target)
	}
}

// TestSealBlockedRequireFeasible asks for a ratio no bound can reach: the
// seal must fail with the infeasible sentinel (and no container).
func TestSealBlockedRequireFeasible(t *testing.T) {
	// Ratio saturates at 8 regardless of bound, so a target of 1000 is
	// unreachable for every region.
	fake := fake("fake", func(bound float64) float64 { return 8 }, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(1000, 0.05), Regions: 2, Seed: 1, MaxIterationsPerRegion: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf := smallBuffer(64)

	cn, sr, err := tu.SealBlocked(context.Background(), buf, SealOptions{Blocks: 4})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible seal err = %v, want ErrInfeasible", err)
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) || ie.ClosestRatio <= 0 {
		t.Fatalf("infeasible seal should report the closest observed ratio, got %+v", err)
	}
	if cn.Payload != nil {
		t.Errorf("infeasible seal returned a container")
	}
	if sr.Tuning.Feasible || sr.Tuning.Iterations == 0 {
		t.Errorf("SealResult should carry the tuning outcome, got %+v", sr.Tuning)
	}
}

// TestSealBlockedPrediction seeds the seal with an in-band bound: the tuning
// step must reuse it instead of training.
func TestSealBlockedPrediction(t *testing.T) {
	fake := fake("fake", func(bound float64) float64 { return 10 }, nil)
	tu, err := NewTuner(fake, Config{Objective: fixedRatio(10, 0.1), Regions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, sr, err := tu.SealBlocked(context.Background(), smallBuffer(64), SealOptions{Blocks: 4, Prediction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Tuning.UsedPrediction {
		t.Errorf("prediction 0.25 lands in band but was not reused: %+v", sr.Tuning)
	}
	if sr.Tuning.ErrorBound != 0.25 {
		t.Errorf("tuned bound = %v, want the predicted 0.25", sr.Tuning.ErrorBound)
	}
}
