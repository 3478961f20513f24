package fraz

import "testing"

// The race scores candidates on a sampled block, so its winner can miss the
// acceptance band on the full field; demoteWinner is the fallback that
// promotes the runner-up (see compressBuffer and TuneT).
func TestDemoteWinner(t *testing.T) {
	sel := &AutoSelection{
		Codec: "b",
		Candidates: []AutoCandidate{
			{Codec: "a", Feasible: true, Score: 5, ErrorBound: 0.1},
			{Codec: "b", Feasible: true, Score: 9, ErrorBound: 0.2},
			{Codec: "c", Feasible: true, Score: 7, ErrorBound: 0.3},
			{Codec: "d", Skipped: "rank window"},
		},
	}
	cand, ok := sel.demoteWinner("missed the band")
	if !ok || cand.Codec != "c" || sel.Codec != "c" {
		t.Fatalf("demoteWinner = %+v ok=%v sel=%s, want promotion of c", cand, ok, sel.Codec)
	}
	if got := sel.Candidates[1]; got.Skipped != "missed the band" || got.Feasible {
		t.Errorf("old winner not demoted: %+v", got)
	}

	cand, ok = sel.demoteWinner("missed again")
	if !ok || cand.Codec != "a" || sel.Codec != "a" {
		t.Fatalf("second demotion = %+v ok=%v sel=%s, want promotion of a", cand, ok, sel.Codec)
	}

	if _, ok = sel.demoteWinner("last one failed"); ok {
		t.Fatal("demoteWinner with no raced candidate left should report !ok")
	}
	for _, c := range sel.Candidates {
		if c.Skipped == "" {
			t.Errorf("candidate %s still unskipped after exhaustion", c.Codec)
		}
	}
}

// When every raced candidate misses the band, the race reports the miss that
// came nearest its target, in the tuned quantity's units — not the highest
// ratio: for a target of 10 a codec stuck at 30 is further off than one at
// 9.4, and under a PSNR target the ratio is not what was tuned at all.
func TestNearerMiss(t *testing.T) {
	stuckHigh := &InfeasibleError{Objective: "ratio", Target: 10, ClosestValue: 30, ClosestRatio: 30}
	justUnder := &InfeasibleError{Objective: "ratio", Target: 10, ClosestValue: 9.4, ClosestRatio: 9.4}
	if !nearerMiss(justUnder, stuckHigh) || nearerMiss(stuckHigh, justUnder) {
		t.Error("target 10: a miss at 9.4 is nearer than a miss at 30")
	}
	quiet := &InfeasibleError{Objective: "psnr", Target: 60, ClosestValue: 64, ClosestRatio: 5}
	noisy := &InfeasibleError{Objective: "psnr", Target: 60, ClosestValue: 41, ClosestRatio: 90}
	if !nearerMiss(quiet, noisy) || nearerMiss(noisy, quiet) {
		t.Error("target 60 dB: a miss at 64 dB is nearer than a miss at 41 dB, whatever their ratios")
	}
	if !nearerMiss(noisy, nil) {
		t.Error("any miss is nearer than none")
	}
}
