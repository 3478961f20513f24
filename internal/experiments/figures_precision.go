package experiments

import (
	"context"
	"fmt"
	"time"

	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

// Precision tunes the same synthetic fields at float32 and at float64 and
// reports the two precisions side by side: the tuned bound, the achieved
// ratio, the reconstruction PSNR at that bound, and the seal throughput.
// Double-precision inputs carry twice the raw bytes but also twice the
// incompressible mantissa noise, so the fixed-ratio search lands on a
// different bound — this table is the direct evidence that the dtype-generic
// pipeline tunes both widths rather than merely accepting them.
func Precision(cfg Config) (*report.Table, error) {
	type target struct {
		app, field string
	}
	targets := []target{
		{"Hurricane", "TCf"},
		{"CESM", "CLDHGH"},
		{"NYX", "baryon_density"},
	}
	if cfg.Quick {
		targets = targets[:2]
	}
	const ratio = 12.0

	tab := report.NewTable(
		fmt.Sprintf("Precision — same field tuned to ratio %.0f at float32 vs float64 (sz:abs)", ratio),
		"field", "dtype", "raw_MB", "tuned_bound", "achieved_ratio", "psnr_db", "max_err", "tune_ms", "seal_MBps", "feasible")

	comp := mustCompressor("sz:abs")
	for _, tg := range targets {
		d, err := dataset.New(tg.app, cfg.Scale)
		if err != nil {
			return nil, err
		}
		data32, shape, err := d.Generate(tg.field, 0)
		if err != nil {
			return nil, err
		}
		data64, _, err := d.Generate64(tg.field, 0)
		if err != nil {
			return nil, err
		}
		buf32, err := pressio.NewBufferOf(data32, shape)
		if err != nil {
			return nil, err
		}
		buf64, err := pressio.NewBufferOf(data64, shape)
		if err != nil {
			return nil, err
		}
		for _, buf := range []pressio.Buffer{buf32, buf64} {
			tu, err := core.NewTuner(comp, core.Config{
				Objective: core.FixedRatio(ratio),
				Seed:      cfg.Seed,
				Workers:   cfg.Workers,
				Regions:   6,
			})
			if err != nil {
				return nil, err
			}
			res, err := tu.TuneBuffer(context.Background(), buf)
			if err != nil {
				return nil, fmt.Errorf("precision: tuning %s/%s %s: %w", tg.app, tg.field, buf.DType(), err)
			}
			tuneMS := float64(res.Elapsed.Microseconds()) / 1e3

			full, err := pressio.Run(comp, buf, res.ErrorBound)
			if err != nil {
				return nil, fmt.Errorf("precision: evaluating %s/%s %s: %w", tg.app, tg.field, buf.DType(), err)
			}
			sealStart := time.Now()
			if _, err := pressio.SealBlocked(context.Background(), comp, buf, res.ErrorBound, 1, 1); err != nil {
				return nil, err
			}
			sealMBps := float64(buf.Bytes()) / 1e6 / time.Since(sealStart).Seconds()

			tab.AddRow(
				fmt.Sprintf("%s/%s", tg.app, tg.field),
				buf.DType().String(),
				float64(buf.Bytes())/1e6,
				res.ErrorBound,
				res.AchievedRatio,
				full.PSNR,
				full.MaxError,
				tuneMS,
				sealMBps,
				res.Feasible,
			)
		}
	}
	tab.AddNote("float64 rows carry twice the raw bytes; the same fixed ratio therefore budgets twice the compressed bytes per value, which the search spends on a tighter bound (higher PSNR) where the field's structure allows it.")
	return tab, nil
}
