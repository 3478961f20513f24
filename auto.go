package fraz

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"fraz/internal/core"
	"fraz/internal/pressio"
)

// This file is the one path every Compress and Tune takes: rank the client's
// candidates, then walk the ranking best first, making with each the seal or
// tune call a named codec makes; the first in-band result wins. A named
// codec's ranking is that codec alone, from its own last bound.
//
// CodecAuto ranks by a race, the per-field codec choice the survey
// literature the project tracks (Di et al. 2024) calls a first-order ratio
// lever: SZ-style prediction wins on smooth fields, transform coding on
// oscillatory ones, SZx-style truncation on near-constant ones, and which
// codec wins is a property of each field's statistics, not of the dataset.
// Candidates are filtered on the registry's capability windows, each one is
// tuned on the block the blocked seal would tune on, and every evaluation
// flows through the client's cache, so racing N codecs costs N tunes on one
// block, and re-racing the same field (or sealing with the winner) is
// answered from memory. The race scores a sample; the winner's seal judges
// the archive (a blocked ratio archive is checked and corrected, a quality
// objective seals monolithically), and a winner whose attempt still ends in
// ErrInfeasible is demoted: the walk then moves on to the runner-up.

// AutoCandidate reports one registered codec's part in a CodecAuto race.
type AutoCandidate struct {
	// Codec is the candidate's registry name.
	Codec string
	// Skipped is the reason the codec did not win: a capability-window
	// mismatch (it never raced), a tuning failure, or the error its attempt
	// returned when the walk demoted it; losing the score comparison leaves
	// it empty — only pre-filter and failure reasons are recorded here; a
	// raced loser has Skipped == "" and Feasible == true.
	Skipped string
	// Feasible reports whether the candidate reached the acceptance band on
	// the sampled block.
	Feasible bool
	// ErrorBound, Ratio, and AchievedValue describe the candidate's tuned
	// configuration on the sample (zero when the codec never raced).
	ErrorBound    float64
	Ratio         float64
	AchievedValue float64
	// Score is the selection score: the sample compression ratio for
	// quality objectives ("ratio at quality"), the measured reconstruction
	// PSNR at the tuned bound for the fixed-ratio objective ("quality at
	// ratio").
	Score float64
	// Evaluations counts compressor invocations this candidate's tune
	// performed; CacheHits of them were served from the shared cache.
	Evaluations int
	CacheHits   int
}

// AutoSelection is the outcome of one CodecAuto race: the winning codec and
// every candidate's result, in Codecs() order.
type AutoSelection struct {
	// Codec is the winner — the codec the field was (or will be) sealed
	// with — or, when every candidate missed the band, the one whose miss
	// the call reports.
	Codec string
	// SampleBlock is the index of the block the race tuned on.
	SampleBlock int
	// Candidates holds one entry per registered codec.
	Candidates []AutoCandidate
}

// Raced lists the candidates that actually competed (passed the capability
// pre-filter and tuned feasibly).
func (s *AutoSelection) Raced() []AutoCandidate {
	var out []AutoCandidate
	for _, c := range s.Candidates {
		if c.Skipped == "" {
			out = append(out, c)
		}
	}
	return out
}

// ranked is one step of the walk: a candidate, the bound its attempt starts
// from, and its entry in the race's Selection.Candidates.
type ranked struct {
	cd         *candidate
	prediction float64
	entry      int
}

// rank orders the candidates a call tries, best first. A named codec is a
// ranking of one, from its own prediction, with no tune, no score and a nil
// Selection; CodecAuto races (race).
func (c *Client) rank(ctx context.Context, buf pressio.Buffer, op string) ([]ranked, *AutoSelection, *TuneResult, error) {
	if c.set.objective.Name == "" {
		return nil, nil, nil, errNoTarget(op)
	}
	if len(c.cands) == 1 {
		cd := c.cands[0]
		return []ranked{{cd: cd, prediction: c.prediction(cd)}}, nil, nil, nil
	}
	return c.race(ctx, buf)
}

// walk makes one attempt per ranked candidate, best first, and stops at the
// first that does not miss the band; try returns the bound the attempt
// settled on, which becomes that candidate's next prediction. A miss — the
// *InfeasibleError of the attempt's own check — demotes the candidate in sel
// with that error's text and moves on, so a walk that runs out returns the
// last miss.
func (c *Client) walk(ranking []ranked, sel *AutoSelection, try func(ranked) (float64, error)) error {
	var err error
	for _, r := range ranking {
		if sel != nil {
			// A raced candidate the walk reaches starts the next call's race
			// from its race bound, whatever its attempt's outcome.
			sel.Codec = r.cd.info.Name
			c.recordBound(r.cd, r.prediction)
		}
		var bound float64
		bound, err = try(r)
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			if err == nil {
				c.recordBound(r.cd, bound)
			}
			return err
		}
		if sel != nil {
			cand := &sel.Candidates[r.entry]
			cand.Skipped = inf.Error()
			cand.Feasible = false
		}
	}
	return err
}

// race ranks the CodecAuto candidates on a sampled block of buf: the
// capability windows, one tune and one score per surviving candidate, and
// the feasible ones in ranking's order. When every candidate that tuned
// missed the band, the ranking is empty and the error is the nearest miss's,
// which is also returned as a TuneResult, with the Selection.
func (c *Client) race(ctx context.Context, buf pressio.Buffer) ([]ranked, *AutoSelection, *TuneResult, error) {
	rank := len(buf.Shape)
	dtype := buf.DType().String()

	// The race tunes on the block the blocked seal would tune on, so the
	// winner's bound doubles as the seal's prediction; a shape that cannot
	// split (or Blocks(1)) races on the whole field.
	layout, err := core.PlanBlocks(buf, c.set.blocks, c.set.workers)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fraz: %s sampling: %w", CodecAuto, err)
	}
	sample := layout.Sample

	sel := &AutoSelection{SampleBlock: layout.SampleBlock, Candidates: make([]AutoCandidate, len(c.cands))}
	var nearest *TuneResult
	for i, cd := range c.cands {
		cand := &sel.Candidates[i]
		cand.Codec = cd.info.Name
		switch {
		case !cd.info.SupportsRank(rank):
			cand.Skipped = fmt.Sprintf("rank window [%d,%d] excludes rank-%d data", cd.info.MinRank, cd.info.MaxRank, rank)
		case !cd.info.SupportsDType(dtype):
			cand.Skipped = fmt.Sprintf("element-width window excludes %s data", dtype)
		default:
			cand.Skipped = cd.skip // decided by New
		}
		if cand.Skipped != "" {
			continue
		}
		res, err := cd.tuner.TuneWithPrediction(ctx, sample, c.prediction(cd))
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, nil, err
			}
			cand.Skipped = fmt.Sprintf("tuning failed: %v", err)
			continue
		}
		cand.Feasible = res.Feasible
		cand.ErrorBound = res.ErrorBound
		cand.Ratio = res.AchievedRatio
		cand.AchievedValue = res.AchievedValue
		cand.Evaluations = res.Iterations
		cand.CacheHits = res.CacheHits
		if !res.Feasible {
			cand.Skipped = "no bound reaches the acceptance band on the sample"
			if miss := tuneResult(res); nearerMiss(miss, nearest) {
				nearest = miss
			}
			continue
		}
		score, err := c.candidateScore(cd, sample, res)
		if err != nil {
			cand.Skipped = fmt.Sprintf("scoring failed: %v", err)
			continue
		}
		cand.Score = score
	}
	ranking := c.ranking(sel)
	if len(ranking) == 0 {
		if nearest != nil {
			// Every raced candidate tuned but missed the band: surface the
			// closest configuration the same way a single-codec tune would.
			sel.Codec = nearest.Codec
			return nil, sel, nearest, nearest.Err()
		}
		return nil, nil, nil, fmt.Errorf("%w: %s found no eligible codec for rank-%d %s data (objective %s): %s",
			ErrUnsupported, CodecAuto, rank, dtype, c.set.objective.Name, skipSummary(sel.Candidates))
	}
	return ranking, sel, nil, nil
}

// ranking lists the candidates that raced (Skipped == "") best first by
// score. The sort is stable, so a tie goes to the first in Codecs() order.
// Each one's race bound is the prediction its attempt starts from, unless
// ReuseBounds(false), as for a candidate's own bound.
func (c *Client) ranking(sel *AutoSelection) []ranked {
	var out []ranked
	for i, cand := range sel.Candidates {
		if cand.Skipped != "" {
			continue
		}
		r := ranked{cd: c.cands[i], entry: i}
		if c.set.reuse {
			r.prediction = cand.ErrorBound
		}
		out = append(out, r)
	}
	slices.SortStableFunc(out, func(a, b ranked) int {
		return cmp.Compare(sel.Candidates[b.entry].Score, sel.Candidates[a.entry].Score)
	})
	return out
}

// candidateScore turns one feasible tune into the race's comparison key.
// Quality objectives already hold quality fixed, so the score is the sample
// compression ratio; the fixed-ratio objective holds size fixed, so the
// score is the measured reconstruction PSNR at the tuned bound (one cached
// round-trip evaluation per candidate).
func (c *Client) candidateScore(cd *candidate, sample pressio.Buffer, res core.Result) (float64, error) {
	if c.set.objective.Quality {
		return res.AchievedRatio, nil
	}
	eval := pressio.NewEvaluator(c.cache, cd.comp, sample)
	rep, _, err := eval.Full(res.ErrorBound)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(rep.PSNR) {
		return 0, fmt.Errorf("reconstruction PSNR is NaN at bound %g", res.ErrorBound)
	}
	return rep.PSNR, nil
}

// nearerMiss reports whether the infeasible tune a came closer to its target
// than b did, in the tuned quantity's own units; any miss beats none.
func nearerMiss(a, b *TuneResult) bool {
	return b == nil || math.Abs(a.AchievedValue-a.Target) < math.Abs(b.AchievedValue-b.Target)
}

// skipSummary compacts the skip reasons for the no-eligible-codec error.
func skipSummary(cands []AutoCandidate) string {
	parts := make([]string, len(cands))
	for i, cand := range cands {
		parts[i] = cand.Codec + ": " + cand.Skipped
	}
	return strings.Join(parts, "; ")
}
