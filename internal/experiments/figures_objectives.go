package experiments

import (
	"context"
	"fmt"

	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/report"
)

// Objectives compares the unified tuner across its four objectives on one
// representative field: how many compressor evaluations each target costs to
// converge, what it achieves, and what fraction of evaluations the shared
// cache absorbed. It substantiates the framework's answer to the paper's
// §VII future work — one tuner, many acceptance criteria — and shows both
// halves of a target's cost as measured: the evaluation count (one to eight
// where the model-first search applies, a region search's worth elsewhere)
// and the wall-clock, in which a quality evaluation is a round trip with a
// quality report (sz's encoder writes the reconstruction, zfp decompresses)
// where a ratio evaluation is a compression.
func Objectives(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "TCf", 0)
	if err != nil {
		return nil, err
	}
	vr := buf.ValueRange()

	objectives := []core.Objective{
		core.FixedRatio(10),
		core.FixedPSNR(60),
		core.FixedSSIM(0.9),
		core.FixedMaxError(0.02 * vr),
	}
	codecs := []string{"sz:abs", "zfp:accuracy"}
	if cfg.Quick {
		codecs = codecs[:1]
	}

	tab := report.NewTable("Objectives: convergence cost across tuning targets (Hurricane TCf)",
		"codec", "objective", "target", "achieved", "achieved_ratio", "evaluations", "cache_hits", "feasible", "ms")
	for _, name := range codecs {
		for _, obj := range objectives {
			tu, err := core.NewTuner(mustCompressor(name), core.Config{
				Objective:              obj,
				Regions:                6,
				MaxIterationsPerRegion: 12,
				Seed:                   cfg.Seed,
				Workers:                cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			res, err := tu.TuneBuffer(context.Background(), buf)
			if err != nil {
				return nil, fmt.Errorf("objectives: %s/%s: %w", name, obj.Name, err)
			}
			tab.AddRow(name, res.Objective, res.Target, res.AchievedValue, res.AchievedRatio,
				res.Iterations, res.CacheHits, res.Feasible, res.Elapsed.Milliseconds())
		}
	}
	tab.AddNote("evaluations are counted as they ran: ratio, psnr and max-error on these error-magnitude codecs are tuned model first (closed-form first bound, or for the ratio a pilot; sequential bracket, at most 8), ssim by the region-parallel MaxLIPO search")
	tab.AddNote("a quality evaluation (psnr/ssim/max-error) is a round trip with a quality report (sz:abs reports on its encoder's reconstruction, zfp:accuracy decompresses), a ratio evaluation a compression alone")
	return tab, nil
}
