package experiments

import (
	"context"

	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

// RegionAblation quantifies the design choices behind the paper's parallel
// orchestrator (Fig. 5, §V-C): how the number of overlapping error-bound
// regions affects the number of compressor calls on the critical path and
// the wall-clock tuning time. It calls the region
// search directly (Tuner.SweepOnly), without the model-first probes that
// settle this target before any region is searched.
func RegionAblation(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "CLOUDf", 0)
	if err != nil {
		return nil, err
	}
	tab := report.NewTable("Region ablation: overlapping-region search (Hurricane CLOUDf, SZ, target 8:1)",
		"regions", "feasible", "total_calls", "winning_region_calls", "time_ms")
	for _, regions := range []int{1, 4, 12} {
		c := mustCompressor("sz:abs")
		tu, err := core.NewTuner(c, core.Config{
			Objective:              core.FixedRatio(8),
			Regions:                regions,
			Seed:                   cfg.Seed,
			Workers:                cfg.Workers,
			MaxIterationsPerRegion: 24,
		})
		if err != nil {
			return nil, err
		}
		res, err := tu.SweepOnly().TuneBuffer(context.Background(), buf)
		if err != nil {
			return nil, err
		}
		tab.AddRow(regions, res.Feasible, res.Iterations, winningCalls(res),
			float64(res.Elapsed.Microseconds())/1000)
	}
	tab.AddNote("splitting the range shortens the winning region's serial path; adjacent regions overlap by a fixed 10%% (paper Fig. 5)")
	return tab, nil
}

// LosslessMotivation reproduces the paper's motivating claim (§I): lossless
// compressors cannot meaningfully reduce scientific floating-point data
// because of the high-entropy mantissas, while error-bounded lossy
// compression at a modest relative bound reaches order-of-magnitude ratios
// on the same fields.
func LosslessMotivation(cfg Config) (*report.Table, error) {
	fields := []struct{ app, field string }{
		{"Hurricane", "TCf"},
		{"CESM", "CLDHGH"},
		{"NYX", "temperature"},
		{"HACC", "x"},
		{"EXAALT", "x"},
	}
	lossless := mustCompressor("flate:lossless")
	lossy := mustCompressor("sz:abs")
	tab := report.NewTable("Motivation: lossless vs error-bounded lossy compression (relative bound 1e-3)",
		"dataset", "field", "lossless_ratio", "lossy_ratio", "lossy_max_error")
	for _, f := range fields {
		d, err := dataset.New(f.app, cfg.Scale)
		if err != nil {
			return nil, err
		}
		buf, err := fieldBuffer(d, f.field, 0)
		if err != nil {
			return nil, err
		}
		losslessRatio, _, err := pressio.Ratio(lossless, buf, 1)
		if err != nil {
			return nil, err
		}
		vr := buf.ValueRange()
		if vr <= 0 {
			vr = 1
		}
		res, err := pressio.Run(lossy, buf, vr*1e-3)
		if err != nil {
			return nil, err
		}
		tab.AddRow(f.app, f.field, losslessRatio, res.CompressionRatio, res.MaxError)
	}
	tab.AddNote("lossless DEFLATE stands in for Gzip/Zstd; SZ runs at a 10^-3 value-range-relative bound")
	return tab, nil
}
