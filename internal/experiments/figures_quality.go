package experiments

import (
	"fraz/internal/dataset"
	"fraz/internal/metrics"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

// Figure1 reproduces the paper's Fig. 1: ZFP's fixed-accuracy mode versus
// its fixed-rate mode on a Hurricane field. The first half of the table is
// the rate-distortion curve (PSNR versus bit rate) for both modes; the
// footnotes report the full quality metrics at a common compression ratio,
// the analogue of the paper's PSNR/max-error/SSIM/ACF annotations.
func Figure1(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "TCf", cfg.timeSteps(d.TimeSteps)-1)
	if err != nil {
		return nil, err
	}

	tab := report.NewTable("Figure 1: ZFP fixed-accuracy vs fixed-rate rate distortion (Hurricane TCf)",
		"mode", "bit_rate", "psnr_db", "max_error")

	// Fixed-accuracy curve: sweep tolerances spanning the useful range.
	vr := buf.ValueRange()
	tolerances := []float64{1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1, 5e-1}
	acc := mustCompressor("zfp:accuracy")
	for _, frac := range tolerances {
		res, err := pressio.Run(acc, buf, frac*vr)
		if err != nil {
			return nil, err
		}
		tab.AddRow("fixed-accuracy", res.BitRate, res.PSNR, res.MaxError)
	}

	// Fixed-rate curve.
	rates := []float64{16, 12, 8, 6, 4, 2, 1}
	fixed := mustCompressor("zfp:rate")
	for _, rate := range rates {
		res, err := pressio.Run(fixed, buf, rate)
		if err != nil {
			return nil, err
		}
		tab.AddRow("fixed-rate", res.BitRate, res.PSNR, res.MaxError)
	}

	// Quality comparison at a common compression ratio, tuned by FRaZ for
	// the accuracy mode and set directly for the rate mode.
	targetCR := 16.0
	rate := 32.0 / targetCR
	_, accFull, err := qualityAt(acc, buf, targetCR, 0.1, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	frFull, err := pressio.Run(fixed, buf, rate)
	if err != nil {
		return nil, err
	}
	tab.AddNote("at CR≈%.0f — fixed-accuracy (FRaZ-tuned): CR=%.1f PSNR=%.1f maxErr=%.3g SSIM=%.4f ACF=%.3f",
		targetCR, accFull.CompressionRatio, accFull.PSNR, accFull.MaxError, accFull.SSIM, accFull.ErrorACF)
	tab.AddNote("at CR≈%.0f — fixed-rate:                 CR=%.1f PSNR=%.1f maxErr=%.3g SSIM=%.4f ACF=%.3f",
		targetCR, frFull.CompressionRatio, frFull.PSNR, frFull.MaxError, frFull.SSIM, frFull.ErrorACF)
	return tab, nil
}

// figure9Case describes one sub-figure of Fig. 9.
type figure9Case struct {
	Dataset string
	Field   string
	// MGARD is skipped for 1-D datasets, as in the paper.
	SkipMGARD bool
}

// Figure9 reproduces the paper's Fig. 9: rate-distortion curves (PSNR versus
// bit rate) for SZ(FRaZ), ZFP(FRaZ), ZFP(fixed-rate), and MGARD(FRaZ) on one
// representative field of each of the five applications.
func Figure9(cfg Config) ([]*report.Table, error) {
	cases := []figure9Case{
		{Dataset: "Hurricane", Field: "TCf"},
		{Dataset: "NYX", Field: "temperature"},
		{Dataset: "CESM", Field: "CLDHGH"},
		{Dataset: "HACC", Field: "x", SkipMGARD: true},
		{Dataset: "EXAALT", Field: "x", SkipMGARD: true},
	}
	targets := []float64{4, 8, 16, 32}
	if cfg.Quick {
		targets = []float64{4, 10, 24}
	}

	var tables []*report.Table
	for _, cse := range cases {
		d, err := dataset.New(cse.Dataset, cfg.Scale)
		if err != nil {
			return nil, err
		}
		buf, err := fieldBuffer(d, cse.Field, 0)
		if err != nil {
			return nil, err
		}
		tab := report.NewTable(
			"Figure 9: rate distortion — "+cse.Dataset+" ("+cse.Field+")",
			"compressor", "target_ratio", "achieved_ratio", "bit_rate", "psnr_db", "feasible")

		tuned := []string{"sz:abs", "zfp:accuracy"}
		if !cse.SkipMGARD {
			tuned = append(tuned, "mgard:abs")
		}
		for _, name := range tuned {
			c := mustCompressor(name)
			for _, target := range targets {
				tunedRes, full, err := qualityAt(c, buf, target, 0.1, cfg.Seed, cfg.Workers)
				if err != nil {
					return nil, err
				}
				tab.AddRow(name+" (FRaZ)", target, full.CompressionRatio,
					full.BitRate, full.PSNR, tunedRes.Feasible)
			}
		}
		// The ZFP fixed-rate baseline reaches the target ratio by
		// construction (rate = 32/CR bits per value).
		fixed := mustCompressor("zfp:rate")
		for _, target := range targets {
			rate := 32.0 / target
			if rate < 1 {
				rate = 1
			}
			full, err := pressio.Run(fixed, buf, rate)
			if err != nil {
				return nil, err
			}
			tab.AddRow("zfp:rate (fixed-rate)", target, full.CompressionRatio,
				full.BitRate, full.PSNR, true)
		}
		if cse.SkipMGARD {
			tab.AddNote("MGARD omitted: it does not support 1-D data (as in the paper)")
		}
		tables = append(tables, tab)
	}
	return tables, nil
}

// Figure10 reproduces the paper's Fig. 10: quality of the decompressed NYX
// temperature field when every compressor is driven to (approximately) the
// same compression ratio. The paper renders slice images; this table reports
// the quantitative annotations attached to those images: PSNR, SSIM of the
// middle slice, and the error autocorrelation.
func Figure10(cfg Config) (*report.Table, error) {
	d, err := dataset.New("NYX", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "temperature", d.TimeSteps-1)
	if err != nil {
		return nil, err
	}
	// The paper targets 85:1 because that is ZFP's closest feasible ratio at
	// that scale; at the reduced synthetic scale high ratios may not be
	// reachable, so the harness walks down a list of targets until the ZFP
	// accuracy mode can express one, then holds every compressor to it.
	target := 0.0
	zfpAcc := mustCompressor("zfp:accuracy")
	var zfpFull metrics.Report
	var zfpFeasible bool
	candidates := []float64{85, 50, 30, 20, 12}
	for i, candidate := range candidates {
		res, full, err := qualityAt(zfpAcc, buf, candidate, 0.1, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		// The last candidate is accepted even if infeasible so the figure
		// still renders with a best-effort target.
		if res.Feasible || i == len(candidates)-1 {
			target, zfpFull, zfpFeasible = candidate, full, res.Feasible
			break
		}
	}

	tab := report.NewTable("Figure 10: quality at a common compression ratio (NYX temperature)",
		"compressor", "achieved_ratio", "psnr_db", "ssim_mid_slice", "acf_error", "feasible")

	addRow := func(name string, full metrics.Report, feasible bool) {
		tab.AddRow(name, full.CompressionRatio, full.PSNR, full.SSIM, full.ErrorACF, feasible)
	}

	// SZ via FRaZ.
	szRes, szFull, err := qualityAt(mustCompressor("sz:abs"), buf, target, 0.1, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	addRow("SZ (FRaZ)", szFull, szRes.Feasible)
	// ZFP accuracy via FRaZ (already tuned above).
	addRow("ZFP (FRaZ)", zfpFull, zfpFeasible)
	// ZFP fixed-rate at the equivalent rate.
	rate := 32.0 / target
	if rate < 1 {
		rate = 1
	}
	frFull, err := pressio.Run(mustCompressor("zfp:rate"), buf, rate)
	if err != nil {
		return nil, err
	}
	addRow("ZFP (fixed-rate)", frFull, true)
	// MGARD via FRaZ.
	mgRes, mgFull, err := qualityAt(mustCompressor("mgard:abs"), buf, target, 0.1, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	addRow("MGARD (FRaZ)", mgFull, mgRes.Feasible)

	tab.AddNote("common target ratio %.0f:1 (the largest the ZFP accuracy mode could express at this scale)", target)
	tab.AddNote("compare fixed-accuracy-derived rows against the fixed-rate row: the FRaZ rows should show higher PSNR/SSIM at the same ratio")
	return tab, nil
}
