package experiments

import (
	"context"
	"fmt"

	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/report"
)

// CacheSavings charts what the shared evaluation cache saves per field: it
// tunes a short time series of several Hurricane fields at an easy and a
// hard target ratio and reports, for each, how many compressor evaluations
// were served from the cache instead of being recompressed. Hard (barely
// reachable or infeasible) targets burn the full region iteration budget —
// the paper's worst case for tuning time (Fig. 7) — and are exactly where
// the overlapping region searches revisit each other's bounds, so the
// savings concentrate where the runtime hurts most. The region search is
// called directly (Tuner.SweepOnly): the model-first probes that now go ahead
// of it seldom leave it anything to revisit.
func CacheSavings(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	fields := []string{"CLOUDf", "TCf", "Pf"}
	if cfg.Quick {
		fields = fields[:2]
	}
	targets := []float64{10, 60}
	steps := cfg.timeSteps(4)

	tab := report.NewTable("Evaluation cache: compressor calls saved per field (Hurricane, SZ)",
		"field", "target_ratio", "steps", "evaluations", "cache_hits", "compressor_calls", "saved_pct")
	var totalHits, totalMisses int
	for _, field := range fields {
		for _, target := range targets {
			tu, err := core.NewTuner(mustCompressor("sz:abs"), core.Config{
				Objective:              core.FixedRatio(target),
				Seed:                   cfg.Seed,
				Workers:                cfg.Workers,
				Regions:                6,
				MaxIterationsPerRegion: 12,
			})
			if err != nil {
				return nil, err
			}
			res, err := tu.SweepOnly().TuneSeries(context.Background(), series(d, field, steps))
			if err != nil {
				return nil, err
			}
			totalHits += res.CacheHits
			totalMisses += res.CacheMisses
			tab.AddRow(fmt.Sprintf("%s/%s", d.Name, field), target, steps,
				res.TotalIterations, res.CacheHits, res.CacheMisses,
				report.SavingsPercent(res.CacheHits, res.CacheMisses))
		}
	}
	tab.AddNote("total: %s", report.Savings(totalHits, totalMisses))
	tab.AddNote("each cache hit is one compressor invocation Algorithm 2's overlapping region searches did not repeat")
	return tab, nil
}
