package fraz

import (
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// The race scores candidates on a sampled block, so its winner's attempt can
// still end in ErrInfeasible; the walk then records that error and tries the
// runner-up (see seal and tuneBuffer). Each row ranks a hand-made race and
// walks it with an attempt that misses the band for the codecs in miss.
func TestRankAndWalk(t *testing.T) {
	race := []AutoCandidate{
		{Codec: "a", Feasible: true, Score: 5, ErrorBound: 0.1},
		{Codec: "b", Feasible: true, Score: 9, ErrorBound: 0.2},
		{Codec: "c", Feasible: true, Score: 7, ErrorBound: 0.3},
		{Codec: "d", Skipped: "rank window"},
	}
	tie := []AutoCandidate{
		{Codec: "a", Feasible: true, Score: 5, ErrorBound: 0.1},
		{Codec: "b", Feasible: true, Score: 5, ErrorBound: 0.2},
	}
	for _, tc := range []struct {
		name   string
		race   []AutoCandidate
		miss   string // codecs whose attempt misses the band
		tried  string // attempts in walk order
		winner string // Selection.Codec afterwards; "" for a walk that runs out
	}{
		{"winner holds", race, "", "b", "b"},
		{"runner-up promoted", race, "b", "bc", "c"},
		{"then the third", race, "bc", "bca", "a"},
		{"ranking runs out", race, "abc", "bca", ""},
		{"tie goes to the first name", tie, "", "a", "a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &Client{set: settings{reuse: true}}
			for _, cand := range tc.race {
				c.cands = append(c.cands, &candidate{info: CodecInfo{Name: cand.Codec}})
			}
			sel := &AutoSelection{Candidates: append([]AutoCandidate(nil), tc.race...)}
			tried := ""
			err := c.walk(c.ranking(sel), sel, func(r ranked) (float64, error) {
				name := r.cd.info.Name
				tried += name
				if r.prediction != sel.Candidates[r.entry].ErrorBound {
					t.Errorf("%s: attempt starts from %g, want its race bound %g", name, r.prediction, sel.Candidates[r.entry].ErrorBound)
				}
				if strings.Contains(tc.miss, name) {
					return 0, &InfeasibleError{Compressor: name, ClosestRatio: 3}
				}
				return 2 * r.prediction, nil
			})
			if tried != tc.tried {
				t.Errorf("walk tried %q, want %q", tried, tc.tried)
			}
			last := tc.tried[len(tc.tried)-1:]
			if tc.winner == "" {
				var inf *InfeasibleError
				if !errors.As(err, &inf) || inf.Compressor != last {
					t.Fatalf("exhausted walk returned %v, want the last miss (%s)", err, last)
				}
			} else if err != nil || sel.Codec != tc.winner {
				t.Fatalf("walk: err = %v, Selection.Codec = %q, want %q", err, sel.Codec, tc.winner)
			}
			for i, cand := range sel.Candidates {
				missed := strings.Contains(tc.miss, cand.Codec)
				switch {
				case cand.Codec == "d":
					if cand.Skipped != "rank window" {
						t.Errorf("skipped candidate d changed: %+v", cand)
					}
				case missed != (cand.Skipped == (&InfeasibleError{Compressor: cand.Codec, ClosestRatio: 3}).Error()) || missed == cand.Feasible:
					t.Errorf("candidate %s: %+v, missed the band = %v", cand.Codec, cand, missed)
				}
				want := 0.0 // never tried
				switch {
				case cand.Codec == tc.winner:
					want = 2 * cand.ErrorBound // where the winner's attempt settled
				case strings.Contains(tc.tried, cand.Codec):
					want = cand.ErrorBound // a miss keeps its race bound
				}
				if got := c.cands[i].lastBound; got != want {
					t.Errorf("candidate %s records %g as its next prediction, want %g", cand.Codec, got, want)
				}
			}
		})
	}
}

// When every raced candidate misses the band, the race reports the miss that
// came nearest its target, in the tuned quantity's units — not the highest
// ratio: for a target of 10 a codec stuck at 30 is further off than one at
// 9.4, and under a PSNR target the ratio is not what was tuned at all.
func TestNearerMiss(t *testing.T) {
	stuckHigh := &TuneResult{Objective: "ratio", Target: 10, AchievedValue: 30, Ratio: 30}
	justUnder := &TuneResult{Objective: "ratio", Target: 10, AchievedValue: 9.4, Ratio: 9.4}
	if !nearerMiss(justUnder, stuckHigh) || nearerMiss(stuckHigh, justUnder) {
		t.Error("target 10: a miss at 9.4 is nearer than a miss at 30")
	}
	quiet := &TuneResult{Objective: "psnr", Target: 60, AchievedValue: 64, Ratio: 5}
	noisy := &TuneResult{Objective: "psnr", Target: 60, AchievedValue: 41, Ratio: 90}
	if !nearerMiss(quiet, noisy) || nearerMiss(noisy, quiet) {
		t.Error("target 60 dB: a miss at 64 dB is nearer than a miss at 41 dB, whatever their ratios")
	}
	if !nearerMiss(noisy, nil) {
		t.Error("any miss is nearer than none")
	}
}

// TestClientConcurrentCalls shares one client between goroutines, named and
// CodecAuto: the candidates' bounds and the evaluation cache are the state
// every call reads and writes, so this is the test to run under -race.
func TestClientConcurrentCalls(t *testing.T) {
	shape := []int{8, 16, 16}
	data := make([]float32, shape[0]*shape[1]*shape[2])
	for i := range data {
		data[i] = float32(math.Sin(float64(i)/7) + math.Cos(float64(i)/31))
	}
	for _, codec := range []string{CodecAuto, "sz:abs"} {
		c, err := New(codec, TargetMaxError(1e-2))
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, 4)
		var wg sync.WaitGroup
		for g := range errs {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, errs[g] = c.Compress(context.Background(), io.Discard, data, shape); errs[g] == nil {
					_, errs[g] = c.Tune(context.Background(), data, shape)
				}
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("%s, goroutine %d: %v", codec, g, err)
			}
		}
	}
}
