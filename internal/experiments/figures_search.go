package experiments

import (
	"context"
	"fmt"
	"time"

	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/optim"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

// Figure3 reproduces the paper's Fig. 3: the relationship between SZ's
// absolute error bound and the achieved compression ratio on the hurricane
// QCLOUDf.log10 field, which is not monotonic — the motivation for using a
// global optimizer instead of bisection.
func Figure3(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "QCLOUDf.log10", 20)
	if err != nil {
		return nil, err
	}
	c := mustCompressor("sz:abs")
	points := 60
	if cfg.Quick {
		points = 30
	}
	vr := buf.ValueRange()
	evals := optim.GridSearch(func(e float64) float64 {
		ratio, _, err := pressio.Ratio(c, buf, e)
		if err != nil {
			return 0
		}
		return ratio
	}, vr*1e-4, vr*0.02, points)

	tab := report.NewTable("Figure 3: SZ compression ratio vs error bound (Hurricane QCLOUDf.log10)",
		"error_bound", "compression_ratio")
	nonMonotone := 0
	for i, ev := range evals {
		tab.AddRow(ev.X, ev.F)
		if i > 0 && ev.F < evals[i-1].F {
			nonMonotone++
		}
	}
	tab.AddNote("ratio decreases while the bound increases at %d of %d consecutive sample pairs (non-monotonic, as in the paper)", nonMonotone, len(evals)-1)
	return tab, nil
}

// Figure4 reproduces the paper's Fig. 4: the ratio-versus-bound curve of a
// step-like compressor (ZFP accuracy mode) on the left, and the clamped
// quadratic loss FRaZ actually minimises on the right, with the acceptance
// region marked.
func Figure4(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "CLOUDf", 0)
	if err != nil {
		return nil, err
	}
	c := mustCompressor("zfp:accuracy")
	target := 12.0
	tolerance := 0.1
	points := 40
	if cfg.Quick {
		points = 24
	}
	vr := buf.ValueRange()
	if vr <= 0 {
		vr = 1
	}
	evals := optim.LogGridSearch(func(e float64) float64 {
		ratio, _, err := pressio.Ratio(c, buf, e)
		if err != nil {
			return 0
		}
		return ratio
	}, vr*1e-7, vr*0.5, points)

	tab := report.NewTable("Figure 4: ratio curve and FRaZ loss (ZFP accuracy, Hurricane CLOUDf)",
		"error_bound", "compression_ratio", "loss", "in_acceptance_region")
	feasiblePoints := 0
	obj := core.FixedRatio(target)
	obj.Tolerance = tolerance
	for _, ev := range evals {
		loss, in := obj.Loss(ev.F), obj.InBand(ev.F)
		if in {
			feasiblePoints++
		}
		tab.AddRow(ev.X, ev.F, loss, in)
	}
	tab.AddNote("target ratio %.0f, tolerance %.0f%%: %d of %d sampled bounds fall in the acceptance region", target, tolerance*100, feasiblePoints, len(evals))
	return tab, nil
}

// Figure6 reproduces the paper's Fig. 6: per-time-step convergence of FRaZ
// on the Hurricane CLOUDf field for a feasible target (the paper's good
// case, ρt=8) and a mostly infeasible one (the bad case, ρt=15), including
// how often the reused bound had to be retrained (§V-C). Like Figures 7 and
// 8 it measures the paper's algorithm: a retrain is the region search
// (Tuner.SweepOnly), not the model-first probes that now go ahead of it.
func Figure6(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	steps := cfg.timeSteps(d.TimeSteps)
	c := mustCompressor("sz:abs")

	run := func(target float64) (core.SeriesResult, error) {
		tu, err := core.NewTuner(c, core.Config{
			Objective: core.FixedRatio(target),
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Regions:   6,
		})
		if err != nil {
			return core.SeriesResult{}, err
		}
		return tu.SweepOnly().TuneSeries(context.Background(), series(d, "CLOUDf", steps))
	}

	// The paper's good case is a comfortably feasible target and its bad
	// case a target outside the compressor's reachable ratio range for most
	// time-steps. At the reduced synthetic scale SZ's effective minimum
	// ratio on this field is around 7.5 (see Fig. 7), so the bad case uses a
	// target below that floor rather than the paper's 15.
	goodTarget, badTarget := 8.0, 3.0
	good, err := run(goodTarget)
	if err != nil {
		return nil, err
	}
	bad, err := run(badTarget)
	if err != nil {
		return nil, err
	}

	tab := report.NewTable("Figure 6: per-time-step convergence (Hurricane CLOUDf, SZ)",
		"time_step", "ratio@target=8", "converged@8", "ratio@target=3", "converged@3")
	for i := 0; i < steps; i++ {
		tab.AddRow(i,
			good.Steps[i].Result.AchievedRatio, good.Steps[i].Result.Feasible,
			bad.Steps[i].Result.AchievedRatio, bad.Steps[i].Result.Feasible)
	}
	tab.AddNote("target %.0f: %d/%d steps converged, %d retrains", goodTarget, good.ConvergedSteps, steps, good.Retrains)
	tab.AddNote("target %.0f: %d/%d steps converged, %d retrains", badTarget, bad.ConvergedSteps, steps, bad.Retrains)
	return tab, nil
}

// Figure7 reproduces the paper's Fig. 7: sensitivity of FRaZ's runtime to
// the requested target ratio. Infeasible targets (below the compressor's
// effective minimum ratio or beyond its maximum) burn the full iteration
// budget, while feasible targets converge quickly.
func Figure7(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	steps := cfg.timeSteps(6)
	targets := []float64{2, 4, 6, 8, 10, 12, 15, 18, 22, 26, 29}
	if cfg.Quick {
		targets = []float64{2, 5, 8, 12, 18, 26}
	}

	tab := report.NewTable("Figure 7: sensitivity to the target compression ratio (Hurricane CLOUDf, SZ)",
		"target_ratio", "total_time_ms", "compressor_cpu_ms", "iterations", "converged_steps")
	for _, target := range targets {
		timed := newTimedCompressor(mustCompressor("sz:abs"))
		tu, err := core.NewTuner(timed, core.Config{
			Objective: core.FixedRatio(target),
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Regions:   6,
			// A tight per-region budget keeps the infeasible cases bounded,
			// playing the role of the paper's iteration cap.
			MaxIterationsPerRegion: 12,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := tu.SweepOnly().TuneSeries(context.Background(), series(d, "CLOUDf", steps))
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		tab.AddRow(target,
			float64(total.Microseconds())/1000,
			float64(timed.CompressionTime().Microseconds())/1000,
			res.TotalIterations,
			fmt.Sprintf("%d/%d", res.ConvergedSteps, steps))
	}
	tab.AddNote("low targets sit below SZ's effective minimum ratio and exhaust the iteration budget, as in the paper")
	tab.AddNote("compressor_cpu_ms sums time spent inside the compressor across all parallel region workers, so it can exceed the wall-clock total")
	return tab, nil
}

// Figure8 reproduces the paper's Fig. 8: strong scaling of the tuning job
// (fields x time-steps x regions) as the worker count grows, for SZ and ZFP.
// The runtime is lower-bounded by the longest-running field, which the table
// reports as the critical path.
func Figure8(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	steps := cfg.timeSteps(4)
	fields := []string{"CLOUDf", "QCLOUDf", "TCf", "Pf", "Uf", "Vf"}
	if cfg.Quick {
		fields = fields[:4]
	}
	workerCounts := []int{1, 2, 4, 8}
	compressors := []string{"sz:abs", "zfp:accuracy"}

	tab := report.NewTable("Figure 8: strong scaling of the tuning job (Hurricane)",
		"compressor", "workers", "runtime_ms", "critical_path_ms", "speedup_vs_1")
	for _, name := range compressors {
		var baseline float64
		for _, workers := range workerCounts {
			c := mustCompressor(name)
			tu, err := core.NewTuner(c, core.Config{
				Objective:              fixedRatio(8, 0.15),
				Seed:                   cfg.Seed,
				Workers:                workers,
				Regions:                4,
				MaxIterationsPerRegion: 10,
			})
			if err != nil {
				return nil, err
			}
			sers := make([]core.Series, len(fields))
			for i, f := range fields {
				sers[i] = series(d, f, steps)
			}
			start := time.Now()
			results, err := tu.SweepOnly().TuneFields(context.Background(), sers)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			var critical time.Duration
			for _, r := range results {
				if r.Elapsed > critical {
					critical = r.Elapsed
				}
			}
			ms := float64(elapsed.Microseconds()) / 1000
			if workers == 1 {
				baseline = ms
			}
			speedup := 0.0
			if ms > 0 {
				speedup = baseline / ms
			}
			tab.AddRow(name, workers, ms, float64(critical.Microseconds())/1000, speedup)
		}
	}
	tab.AddNote("runtime is lower-bounded by the longest field's tuning time (the critical path), as discussed for Fig. 8 in the paper")
	return tab, nil
}

// winningCalls counts the evaluations of the search stage a feasible run
// ended on — the winning sweep region, which the list ends with, or the
// bisection after an unsuccessful sweep — and all of them otherwise.
func winningCalls(res core.Result) int {
	evs := res.Evaluations
	if !res.Feasible || len(evs) == 0 {
		return res.Iterations
	}
	last, i := evs[len(evs)-1], len(evs)-1
	for i > 0 && evs[i-1].Rung == last.Rung && evs[i-1].Region == last.Region {
		i--
	}
	return len(evs) - i
}

// IterationComparison reproduces the §V-B1 claim that FRaZ's global
// optimizer reaches the target ratio in fewer compressor invocations than a
// binary search over the error bound, especially when the ratio curve is not
// monotonic. It reports, per field, the calls made by the winning region
// (one rank's serial critical path), the calls of all the regions up to and
// including it (what a single worker executes), the binary-search baseline on
// the full range, and what the tuner spends now that the model-first probes
// go ahead of the region search.
func IterationComparison(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	step := cfg.timeSteps(d.TimeSteps) - 1
	fields := []string{"CLOUDf", "QCLOUDf.log10"}
	target := 8.0
	tolerance := 0.1

	tab := report.NewTable("Iteration comparison: FRaZ vs binary search (Hurricane, SZ, target 8:1)",
		"field", "method", "compressor_calls", "achieved_ratio", "converged")
	for _, field := range fields {
		buf, err := fieldBuffer(d, field, step)
		if err != nil {
			return nil, err
		}
		c := mustCompressor("sz:abs")
		tu, err := ratioTuner(c, target, tolerance, cfg.Seed, cfg.Workers)
		if err != nil {
			return nil, err
		}
		frazRes, err := tu.SweepOnly().TuneBuffer(context.Background(), buf)
		if err != nil {
			return nil, err
		}
		// The winning region's iteration count is the serial critical path a
		// single MPI rank would have executed.
		tab.AddRow(field, "FRaZ (winning region)", winningCalls(frazRes), frazRes.AchievedRatio, frazRes.Feasible)
		tab.AddRow(field, "FRaZ (regions up to the winner)", frazRes.Iterations, frazRes.AchievedRatio, frazRes.Feasible)

		// Binary search baseline over the same full range, assuming
		// (incorrectly in general) that the ratio rises monotonically.
		vr := buf.ValueRange()
		if vr <= 0 {
			vr = 1
		}
		calls := 0
		binRes, err := optim.BinarySearch(func(e float64) float64 {
			calls++
			ratio, _, err := pressio.Ratio(c, buf, e)
			if err != nil {
				return 0
			}
			return ratio
		}, target, tolerance*target, vr*1e-9, vr, 64)
		if err != nil {
			return nil, err
		}
		tab.AddRow(field, "binary search", calls, binRes.Value, binRes.Converged)

		modelRes, err := tu.TuneBuffer(context.Background(), buf)
		if err != nil {
			return nil, err
		}
		tab.AddRow(field, "FRaZ (model first)", modelRes.Iterations, modelRes.AchievedRatio, modelRes.Feasible)
	}
	tab.AddNote("the winning-region count is the serial path one rank executes; the total adds the regions below it, which is what a single worker executes and all the answer rests on (regions searched ahead by further workers are not billed)")
	tab.AddNote("model first is the tuner as it runs: sequential probes along the one-bit-per-halving line, a bisection where they bracket the band without entering it, and the region search of the rows above only after both")
	return tab, nil
}

// Direct backs the frsz direct-satisfaction claim: for a fixed-ratio
// objective a rate-capable codec inverts the target ratio into a whole-bit
// bits-per-value setting arithmetically and seals with zero search
// evaluations, while error-bounded codecs pay a search for the same objective
// — model-first probes, and the multi-region search where those do not reach
// the band. The table reports the tuning cost side by side.
func Direct(cfg Config) (*report.Table, error) {
	d, err := dataset.New("Hurricane", cfg.Scale)
	if err != nil {
		return nil, err
	}
	buf, err := fieldBuffer(d, "CLOUDf", 0)
	if err != nil {
		return nil, err
	}
	codecs := []string{"sz:abs", "zfp:accuracy", "frsz:rate"}
	targets := []float64{4, 8}
	if cfg.Quick {
		targets = []float64{8}
	}

	tab := report.NewTable("Direct satisfaction: tuning cost for fixed-ratio objectives (Hurricane CLOUDf)",
		"compressor", "target_ratio", "evaluations", "tune_ms", "direct", "achieved_ratio", "converged")
	for _, name := range codecs {
		for _, target := range targets {
			c := mustCompressor(name)
			start := time.Now()
			res, err := tuneOnce(c, buf, target, 0.1, cfg.Seed, cfg.Workers)
			if err != nil {
				return nil, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			tab.AddRow(name, target, res.Iterations, ms, res.Direct, res.AchievedRatio, res.Feasible)
		}
	}
	tab.AddNote("frsz:rate computes bits-per-value = width/target and seals directly; sz and zfp search the error-bound axis, and infeasible targets burn the full iteration budget")
	return tab, nil
}

// TableIII reproduces the paper's Table III: the dataset inventory, with the
// synthetic (scaled-down) sizes of this reproduction alongside the original
// SDRBench sizes for reference.
func TableIII(cfg Config) (*report.Table, error) {
	originalSizes := map[string]string{
		"Hurricane": "59 GB",
		"HACC":      "11 GB",
		"CESM":      "48 GB",
		"EXAALT":    "1.1 GB",
		"NYX":       "35 GB",
	}
	tab := report.NewTable("Table III: dataset descriptions (synthetic stand-ins)",
		"name", "domain", "time_steps", "dims", "fields", "synthetic_size_MB", "paper_size")
	for _, d := range dataset.All(cfg.Scale) {
		tab.AddRow(d.Name, d.Domain, d.TimeSteps, d.Fields[0].Shape.NDims(), len(d.Fields),
			float64(d.TotalBytes())/1e6, originalSizes[d.Name])
	}
	tab.AddNote("grid resolutions are scaled down (scale=%s); dimensionality, field counts, and time-step counts follow the paper", cfg.Scale)
	return tab, nil
}
