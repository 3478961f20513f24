package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"fraz/internal/container"
	"fraz/internal/core"
	"fraz/internal/dataset"
	"fraz/internal/pressio"
)

// Config controls one harness run.
type Config struct {
	// Dataset and Field name the synthetic SDRBench stand-in to benchmark.
	Dataset, Field string
	// Scale selects the field resolution. The gate compares runs against a
	// committed baseline, so CI and baseline must use the same scale — quick
	// mode shrinks the measurement budget, never the field.
	Scale dataset.Scale
	// BenchTime is the minimum measurement window per (codec, dtype, mode,
	// op) cell; every cell also runs at least minIters iterations.
	BenchTime time.Duration
	// Blocks is the block count for the blocked (v2) seal/open rows.
	Blocks int
	// Codecs restricts the run to the named codecs (empty = all registered).
	Codecs []string
	// Quick marks the reduced-budget mode in the report.
	Quick bool
}

// minIters is the iteration floor per measurement round: enough to absorb a
// single scheduling hiccup without stretching the quick mode.
const minIters = 3

// measureRounds is the best-of-N factor: each measurement budget is split
// into this many independent rounds and the fastest round wins. Timing noise
// is one-sided — preemption and cache pollution only ever slow an iteration
// down — so the minimum over rounds is the robust estimator of the true cost.
const measureRounds = 3

// Result is one benchmarked (codec, dtype, mode) cell.
type Result struct {
	Codec           string  `json:"codec"`
	DType           string  `json:"dtype"`
	Mode            string  `json:"mode"` // "monolithic" or "blocked"
	Blocks          int     `json:"blocks"`
	Bound           float64 `json:"bound"`
	Ratio           float64 `json:"ratio"`
	SealGBps        float64 `json:"seal_gbps"`
	OpenGBps        float64 `json:"open_gbps"`
	SealAllocsPerOp float64 `json:"seal_allocs_per_op"`
	OpenAllocsPerOp float64 `json:"open_allocs_per_op"`
	// TuneEvaluations and TuneMs record what a FixedRatio tune targeting
	// this cell's achieved ratio costs: compressor invocations and
	// wall-clock milliseconds. Fixed-rate codecs satisfy the objective
	// arithmetically (0 evaluations); search-based codecs pay the MaxLIPO
	// loop. Absent (zero) in reports written before these columns existed.
	TuneEvaluations int     `json:"tune_evaluations"`
	TuneMs          float64 `json:"tune_ms"`
}

// Key identifies a cell across runs for baseline comparison.
func (r Result) Key() string { return r.Codec + "|" + r.DType + "|" + r.Mode }

// CacheResult reports the evaluation-cache behaviour of a tuner-shaped bound
// sweep (repeated bounds, as the region search produces) for one codec.
type CacheResult struct {
	Codec   string  `json:"codec"`
	DType   string  `json:"dtype"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Report is the full harness output, serialized to BENCH_<n>.json.
type Report struct {
	Version int           `json:"version"`
	Quick   bool          `json:"quick"`
	Dataset string        `json:"dataset"`
	Shape   []int         `json:"shape"`
	Results []Result      `json:"results"`
	Cache   []CacheResult `json:"cache"`
	// SZXSealSpeedupVsSZ records szx:abs monolithic seal throughput over
	// sz:abs at the same field and relative bound, per dtype.
	SZXSealSpeedupVsSZ map[string]float64 `json:"szx_seal_speedup_vs_sz"`
}

// measure runs fn in measureRounds independent rounds of at least
// budget/measureRounds each (and minIters iterations per round), returning
// the best round's seconds and heap allocations per iteration. A warm-up
// call runs first so one-time costs (pool priming, lazy init) stay out of
// the numbers.
func measure(budget time.Duration, fn func() error) (secPerOp, allocsPerOp float64, err error) {
	if err = fn(); err != nil {
		return 0, 0, err
	}
	roundBudget := budget / measureRounds
	secPerOp = math.Inf(1)
	allocsPerOp = math.Inf(1)
	for round := 0; round < measureRounds; round++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		iters := 0
		for {
			if err = fn(); err != nil {
				return 0, 0, err
			}
			iters++
			if iters >= minIters && time.Since(start) >= roundBudget {
				break
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		secPerOp = math.Min(secPerOp, elapsed.Seconds()/float64(iters))
		allocsPerOp = math.Min(allocsPerOp, float64(ms1.Mallocs-ms0.Mallocs)/float64(iters))
	}
	return secPerOp, allocsPerOp, nil
}

// boundFor maps the common 10^-3 relative operating point onto each codec's
// parameter unit: an absolute error takes it scaled by the value range, a
// range-relative one as it is, the MSE-bounded MGARD mode its square, and
// the rate/precision modes get a fixed 8 bits per value / 16 bit planes.
func boundFor(p pressio.Param, valueRange float64) float64 {
	abs := valueRange * 1e-3
	switch p.Unit {
	case pressio.UnitBits:
		return 8
	case pressio.UnitPlanes:
		return 16
	case pressio.UnitSquaredError:
		return abs * abs
	case pressio.UnitRangeFraction:
		return 1e-3
	default:
		return abs
	}
}

// buffers generates the field at both element widths.
func buffers(cfg Config) (pressio.Buffer, pressio.Buffer, error) {
	d, err := dataset.New(cfg.Dataset, cfg.Scale)
	if err != nil {
		return pressio.Buffer{}, pressio.Buffer{}, err
	}
	f32, shape, err := d.Generate(cfg.Field, 0)
	if err != nil {
		return pressio.Buffer{}, pressio.Buffer{}, err
	}
	b32, err := pressio.NewBuffer(f32, shape)
	if err != nil {
		return pressio.Buffer{}, pressio.Buffer{}, err
	}
	f64, _, err := d.Generate64(cfg.Field, 0)
	if err != nil {
		return pressio.Buffer{}, pressio.Buffer{}, err
	}
	b64, err := pressio.NewBufferOf(f64, shape)
	if err != nil {
		return pressio.Buffer{}, pressio.Buffer{}, err
	}
	return b32, b64, nil
}

func wantCodec(cfg Config, name string) bool {
	if len(cfg.Codecs) == 0 {
		return true
	}
	for _, c := range cfg.Codecs {
		if c == name {
			return true
		}
	}
	return false
}

// run executes the harness and returns the report. Codec/dtype combinations
// a codec rejects are skipped with a note on skipped, not treated as errors.
func run(cfg Config, logf func(format string, args ...interface{})) (Report, error) {
	b32, b64, err := buffers(cfg)
	if err != nil {
		return Report{}, err
	}
	rep := Report{
		Version:            1,
		Quick:              cfg.Quick,
		Dataset:            cfg.Dataset + "/" + cfg.Field,
		Shape:              append([]int(nil), b32.Shape...),
		SZXSealSpeedupVsSZ: map[string]float64{},
	}

	type dtypeCase struct {
		name string
		buf  pressio.Buffer
	}
	cases := []dtypeCase{{"float32", b32}, {"float64", b64}}

	for _, codec := range pressio.Codecs() {
		if !wantCodec(cfg, codec.Name) {
			continue
		}
		if !codec.SupportsShape(b32.Shape) {
			continue
		}
		for _, dc := range cases {
			bound := boundFor(codec.Param, dc.buf.ValueRange())
			cellStart := len(rep.Results)
			for _, mode := range []struct {
				name   string
				blocks int
			}{{"monolithic", 1}, {"blocked", cfg.Blocks}} {
				res, err := benchCell(codec, dc.buf, bound, mode.blocks, cfg.benchTime())
				if err != nil {
					// A codec that cannot handle this dtype/mode is a gap in
					// the matrix, not a harness failure.
					logf("skip %s/%s/%s: %v", codec.Name, dc.name, mode.name, err)
					continue
				}
				res.Codec = codec.Name
				res.DType = dc.name
				res.Mode = mode.name
				rep.Results = append(rep.Results, res)
				logf("%-14s %-7s %-10s seal %7.3f GB/s (%6.0f allocs)  open %7.3f GB/s (%6.0f allocs)  ratio %.1f",
					codec.Name, dc.name, mode.name, res.SealGBps, res.SealAllocsPerOp, res.OpenGBps, res.OpenAllocsPerOp, res.Ratio)
			}
			// Tuning cost: one FixedRatio tune targeting the monolithic
			// cell's achieved ratio (feasible by construction). The cost is
			// a property of the (codec, dtype) pair, so both mode cells of
			// this dtype get the same columns.
			if mono := findResult(rep.Results[cellStart:], codec.Name, dc.name, "monolithic"); mono != nil && mono.Ratio > 1 {
				evals, ms, err := measureTune(codec, dc.buf, mono.Ratio)
				if err != nil {
					logf("skip tune %s/%s: %v", codec.Name, dc.name, err)
				} else {
					for i := cellStart; i < len(rep.Results); i++ {
						rep.Results[i].TuneEvaluations = evals
						rep.Results[i].TuneMs = ms
					}
					logf("%-14s %-7s tune ratio %.1f: %d evaluations in %.1f ms", codec.Name, dc.name, mono.Ratio, evals, ms)
				}
			}
			cr, err := cacheSweep(codec, dc.buf, bound)
			if err == nil {
				cr.DType = dc.name
				rep.Cache = append(rep.Cache, cr)
			}
		}
	}

	for _, dt := range []string{"float32", "float64"} {
		szx := findResult(rep.Results, "szx:abs", dt, "monolithic")
		sz := findResult(rep.Results, "sz:abs", dt, "monolithic")
		if szx != nil && sz != nil && sz.SealGBps > 0 {
			rep.SZXSealSpeedupVsSZ[dt] = szx.SealGBps / sz.SealGBps
		}
	}
	return rep, nil
}

func (cfg Config) benchTime() time.Duration {
	if cfg.BenchTime > 0 {
		return cfg.BenchTime
	}
	if cfg.Quick {
		return 100 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// benchCell measures seal and open for one (codec, dtype, blocks) cell.
func benchCell(comp pressio.Compressor, buf pressio.Buffer, bound float64, blocks int, budget time.Duration) (Result, error) {
	ctx := context.Background()
	seal := func() (container.Container, error) {
		if blocks <= 1 {
			return pressio.Seal(comp, buf, bound)
		}
		return pressio.SealBlocked(ctx, comp, buf, bound, blocks, 0)
	}

	cn, err := seal()
	if err != nil {
		return Result{}, err
	}
	sealSec, sealAllocs, err := measure(budget, func() error {
		_, err := seal()
		return err
	})
	if err != nil {
		return Result{}, err
	}
	openSec, openAllocs, err := measure(budget, func() error {
		_, err := pressio.OpenBlocked(ctx, cn, 0)
		return err
	})
	if err != nil {
		return Result{}, err
	}

	gb := float64(buf.Bytes()) / 1e9
	return Result{
		Blocks:          blocks,
		Bound:           bound,
		Ratio:           cn.Header.Ratio,
		SealGBps:        gb / sealSec,
		OpenGBps:        gb / openSec,
		SealAllocsPerOp: sealAllocs,
		OpenAllocsPerOp: openAllocs,
	}, nil
}

// measureTune runs one FixedRatio tune against a fresh compressor and
// reports its cost: total compressor evaluations and wall-clock
// milliseconds. Rate-capable codecs resolve the objective arithmetically
// (0 evaluations); the rest pay the per-region search.
func measureTune(comp pressio.Compressor, buf pressio.Buffer, target float64) (evals int, ms float64, err error) {
	tn, err := core.NewTuner(comp, core.Config{TargetRatio: target, Tolerance: 0.1, Seed: 1})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	res, err := tn.TuneBuffer(context.Background(), buf)
	if err != nil {
		return 0, 0, err
	}
	return res.Iterations, float64(time.Since(start).Microseconds()) / 1e3, nil
}

// cacheSweep replays a tuner-shaped bound sequence (a region sweep visited
// twice, as successive search rounds do) through a fresh evaluation cache and
// reports the hit rate.
func cacheSweep(comp pressio.Compressor, buf pressio.Buffer, bound float64) (CacheResult, error) {
	cache := pressio.NewCache()
	ev := pressio.NewEvaluator(cache, comp, buf)
	sweep := []float64{bound, bound / 2, bound / 4, bound / 8}
	for round := 0; round < 2; round++ {
		for _, b := range sweep {
			if _, _, _, err := ev.Ratio(b); err != nil {
				return CacheResult{}, err
			}
		}
	}
	hits, misses, _ := cache.Stats()
	total := hits + misses
	hr := 0.0
	if total > 0 {
		hr = float64(hits) / float64(total)
	}
	return CacheResult{Codec: comp.Descriptor().Name, Hits: hits, Misses: misses, HitRate: hr}, nil
}

// violatingCodecs extracts the distinct codec names from gate violation
// strings (each starts with the "codec|dtype|mode" cell key).
func violatingCodecs(violations []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range violations {
		bar := strings.IndexByte(v, '|')
		if bar < 0 {
			continue
		}
		codec := v[:bar]
		if !seen[codec] {
			seen[codec] = true
			out = append(out, codec)
		}
	}
	sort.Strings(out)
	return out
}

// mergeResults replaces cells of rep that were re-measured (matched by cell
// key) with the fresh measurements.
func mergeResults(rep *Report, fresh []Result) {
	byKey := map[string]Result{}
	for _, r := range fresh {
		byKey[r.Key()] = r
	}
	for i, r := range rep.Results {
		if f, ok := byKey[r.Key()]; ok {
			rep.Results[i] = f
		}
	}
}

func findResult(rs []Result, codec, dtype, mode string) *Result {
	for i := range rs {
		if rs[i].Codec == codec && rs[i].DType == dtype && rs[i].Mode == mode {
			return &rs[i]
		}
	}
	return nil
}

// geomeanSeal is the run's machine-speed proxy: the geometric mean of every
// cell's seal throughput. Dividing each cell by it cancels uniform machine
// speed differences between the baseline host and the CI runner, while a
// single codec regressing still shows up as a drop in its normalized value.
func geomeanSeal(rs []Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rs {
		if r.SealGBps <= 0 {
			return 0
		}
		sum += math.Log(r.SealGBps)
	}
	return math.Exp(sum / float64(len(rs)))
}

// allocSlack is the absolute allocation headroom before the relative gate
// applies; tiny cells jitter by a few allocations (flate internals, map
// growth) without meaning anything.
const allocSlack = 64

// gate compares a run against a baseline and returns one violation string
// per regressed metric. Throughput is compared after normalizing by each
// run's geomean seal throughput (machine-speed invariant); allocations per
// op are compared directly (machine invariant by construction). Cells
// missing from either side are ignored — the matrix may grow or shrink.
func gate(current, baseline Report, pct float64) []string {
	var out []string
	curNorm := geomeanSeal(current.Results)
	baseNorm := geomeanSeal(baseline.Results)
	if curNorm <= 0 || baseNorm <= 0 {
		return []string{"gate: cannot normalize (non-positive throughput in report)"}
	}
	limit := 1 - pct/100
	base := map[string]Result{}
	for _, r := range baseline.Results {
		base[r.Key()] = r
	}
	keys := make([]string, 0, len(current.Results))
	cur := map[string]Result{}
	for _, r := range current.Results {
		cur[r.Key()] = r
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	for _, k := range keys {
		c, b := cur[k], base[k]
		if b.Codec == "" {
			continue
		}
		if rel, relBase := c.SealGBps/curNorm, b.SealGBps/baseNorm; rel < relBase*limit {
			out = append(out, fmt.Sprintf("%s: relative seal throughput %.3f, baseline %.3f (>%g%% drop)", k, rel, relBase, pct))
		}
		if rel, relBase := c.OpenGBps/curNorm, b.OpenGBps/baseNorm; rel < relBase*limit {
			out = append(out, fmt.Sprintf("%s: relative open throughput %.3f, baseline %.3f (>%g%% drop)", k, rel, relBase, pct))
		}
		if c.SealAllocsPerOp > b.SealAllocsPerOp*(1+pct/100)+allocSlack {
			out = append(out, fmt.Sprintf("%s: seal allocs/op %.0f, baseline %.0f (>%g%% growth)", k, c.SealAllocsPerOp, b.SealAllocsPerOp, pct))
		}
		if c.OpenAllocsPerOp > b.OpenAllocsPerOp*(1+pct/100)+allocSlack {
			out = append(out, fmt.Sprintf("%s: open allocs/op %.0f, baseline %.0f (>%g%% growth)", k, c.OpenAllocsPerOp, b.OpenAllocsPerOp, pct))
		}
	}
	return out
}
