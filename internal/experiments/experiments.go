// Package experiments regenerates every evaluation table and figure of the
// paper on the synthetic SDRBench stand-ins. Each exported function
// corresponds to one figure or table (see DESIGN.md's per-experiment index)
// and returns a report.Table whose rows are the same series the paper plots:
// the absolute numbers differ — the substrate is a pure-Go reimplementation
// on synthetic data rather than the authors' Bebop testbed — but the shapes
// (who wins, where ratios saturate, where convergence fails) are the point.
package experiments

import (
	"context"
	"fmt"

	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/metrics"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

// Config controls the scale and thoroughness of the experiment runs.
type Config struct {
	// Scale selects the synthetic dataset resolution.
	Scale dataset.Scale
	// Seed makes every run deterministic.
	Seed int64
	// Workers bounds concurrency inside FRaZ.
	Workers int
	// MaxTimeSteps caps the number of time-steps used by the series
	// experiments (0 = the dataset's full count).
	MaxTimeSteps int
	// Quick trims parameter sweeps so the whole suite finishes in seconds;
	// it is what the unit tests and the default bench configuration use.
	Quick bool
}

// DefaultConfig returns the configuration used by the benchmarks: small
// scale, trimmed sweeps, deterministic seed.
func DefaultConfig() Config {
	return Config{Scale: dataset.ScaleTiny, Seed: 42, Quick: true, MaxTimeSteps: 12}
}

func (c Config) timeSteps(datasetSteps int) int {
	if c.MaxTimeSteps > 0 && c.MaxTimeSteps < datasetSteps {
		return c.MaxTimeSteps
	}
	return datasetSteps
}

// fieldBuffer generates one field/time-step as a pressio.Buffer.
func fieldBuffer(d dataset.Dataset, field string, step int) (pressio.Buffer, error) {
	data, shape, err := d.Generate(field, step)
	if err != nil {
		return pressio.Buffer{}, err
	}
	return pressio.NewBufferOf(data, shape)
}

// series builds a core.Series backed by the dataset generator.
func series(d dataset.Dataset, field string, steps int) core.Series {
	return core.Series{
		Field: fmt.Sprintf("%s/%s", d.Name, field),
		Steps: steps,
		At: func(i int) (pressio.Buffer, error) {
			return fieldBuffer(d, field, i)
		},
	}
}

// mustCompressor resolves a registered compressor or panics; experiment code
// only references the compressors registered by the pressio package itself.
func mustCompressor(name string) pressio.Compressor {
	c, err := pressio.New(name)
	if err != nil {
		panic(err)
	}
	return c
}

// fixedRatio is the paper's objective with an explicit acceptance band:
// the target ratio within ±tolerance, a fraction of it.
func fixedRatio(target, tolerance float64) core.Objective {
	o := core.FixedRatio(target)
	o.Tolerance = tolerance
	return o
}

// ratioTuner is the fixed-ratio tuner the single-buffer experiments share.
func ratioTuner(c pressio.Compressor, target, tolerance float64, seed int64, workers int) (*core.Tuner, error) {
	return core.NewTuner(c, core.Config{
		Objective: fixedRatio(target, tolerance),
		Seed:      seed,
		Workers:   workers,
		Regions:   6,
	})
}

// tuneOnce runs FRaZ on a single buffer for one target ratio.
func tuneOnce(c pressio.Compressor, buf pressio.Buffer, target, tolerance float64, seed int64, workers int) (core.Result, error) {
	tu, err := ratioTuner(c, target, tolerance, seed, workers)
	if err != nil {
		return core.Result{}, err
	}
	return tu.TuneBuffer(context.Background(), buf)
}

// qualityAt runs FRaZ to reach the target ratio with an error-bounded
// compressor and then evaluates the decompressed quality at the recommended
// bound, returning the full pressio result alongside the tuning result.
func qualityAt(c pressio.Compressor, buf pressio.Buffer, target, tolerance float64, seed int64, workers int) (core.Result, metrics.Report, error) {
	tuned, err := tuneOnce(c, buf, target, tolerance, seed, workers)
	if err != nil {
		return core.Result{}, metrics.Report{}, err
	}
	full, err := pressio.Run(c, buf, tuned.ErrorBound)
	if err != nil {
		return tuned, metrics.Report{}, err
	}
	return tuned, full, nil
}

// experiment is one row of the registry: the name frazbench takes and the
// function that builds its tables.
type experiment struct {
	name string
	run  func(Config) ([]*report.Table, error)
}

// registry is the one ordered list of experiments; Run dispatches on it and
// Names reads it. The fig*/table* entries correspond to the paper's
// evaluation; "iters", "regions", and "lossless" back specific claims made in
// its text (§V-B1, §V-C/Fig. 5, and §I), "direct" contrasts the
// zero-evaluation frsz fast path with the search codecs on fixed-ratio
// objectives, "cache" charts the evaluations saved by the shared evaluation
// cache, "objectives" compares convergence cost across the four tuning
// objectives (ratio, PSNR, SSIM, max-error), "precision" tunes the same
// fields at float32 versus float64, and "portfolio" pits the per-field codec
// race (fraz.CodecAuto) against each single global codec on one multi-field
// snapshot. Wall-clock throughput is not an experiment: benchmark/ measures it.
var registry = []experiment{
	{"fig1", one(Figure1)},
	{"fig3", one(Figure3)},
	{"fig4", one(Figure4)},
	{"fig6", one(Figure6)},
	{"fig7", one(Figure7)},
	{"fig8", one(Figure8)},
	{"fig9", Figure9},
	{"fig10", one(Figure10)},
	{"table3", one(TableIII)},
	{"iters", one(IterationComparison)},
	{"direct", one(Direct)},
	{"regions", one(RegionAblation)},
	{"lossless", one(LosslessMotivation)},
	{"cache", one(CacheSavings)},
	{"objectives", one(Objectives)},
	{"precision", one(Precision)},
	{"portfolio", one(Portfolio)},
}

// one adapts a single-table experiment to the registry's signature.
func one(f func(Config) (*report.Table, error)) func(Config) ([]*report.Table, error) {
	return func(cfg Config) ([]*report.Table, error) {
		t, err := f(cfg)
		if err != nil {
			return nil, err
		}
		return []*report.Table{t}, nil
	}
}

// Run executes the named experiment. It is the dispatcher used by the
// frazbench command; names follow the paper's figure/table numbering.
func Run(name string, cfg Config) ([]*report.Table, error) {
	for _, e := range registry {
		if e.name == name {
			return e.run(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
}

// Names lists the available experiment identifiers, in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}
