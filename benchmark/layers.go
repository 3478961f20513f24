package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"fraz"
	"fraz/benchmark/stats"
	"fraz/benchmark/trace"
	"fraz/internal/blocks"
	"fraz/internal/container"
	"fraz/internal/core"
	"fraz/internal/grid"
	"fraz/internal/optim"
	"fraz/internal/pressio"
)

// layerStats holds a traced run's spans and the per-layer samples that are
// not span lengths (rates, sizes, counts). Every layer is measured from
// outside, by timing a call into one of its public functions right after the
// end-to-end call it explains, on that call's own input.
type layerStats struct {
	rec *trace.Recorder
	// mu guards samples: frazd-mixed's clients record concurrently.
	mu      sync.Mutex
	samples map[string][]float64
}

func newLayerStats() *layerStats {
	return &layerStats{rec: trace.New(), samples: map[string][]float64{}}
}

func (ls *layerStats) add(name string, v float64) {
	ls.mu.Lock()
	ls.samples[name] = append(ls.samples[name], v)
	ls.mu.Unlock()
}

// time records a span and keeps its length, in milliseconds, as a sample
// under the span's name. On the nil receiver — an untraced call — it only
// runs and times fn, so traced and untraced runs execute the same
// statements.
func (ls *layerStats) time(name string, op, parent int, fn func()) (id int, took time.Duration) {
	if ls == nil {
		return (*trace.Recorder)(nil).Time(name, op, parent, fn)
	}
	id, took = ls.rec.Time(name, op, parent, fn)
	ls.add(name, took.Seconds()*1e3)
	return id, took
}

// memBefore and memAfter bracket an end-to-end call with allocation
// counters; on the nil receiver (an untraced call) they do nothing.
func (ls *layerStats) memBefore() *runtime.MemStats {
	if ls == nil {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

func (ls *layerStats) memAfter(before *runtime.MemStats) {
	if ls == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ls.add("fraz.allocs_per_op", float64(m.Mallocs-before.Mallocs))
	ls.add("fraz.alloc_mb_per_op", float64(m.TotalAlloc-before.TotalAlloc)/1e6)
}

// replay is one end-to-end compress call to be explained.
type replay struct {
	op, parent int
	job        job
	res        *fraz.CompressResult
	archive    []byte
	objective  string
	// workers is the Workers value the client ran with (0 = GOMAXPROCS).
	workers int
}

func bufferOf(j job) (pressio.Buffer, error) {
	dims, err := grid.NewDims(j.data.Shape...)
	if err != nil {
		return pressio.Buffer{}, err
	}
	if j.data.Wide() {
		return pressio.NewBufferOf(j.data.F64, dims)
	}
	return pressio.NewBufferOf(j.data.F32, dims)
}

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// replayCompress re-executes, one layer at a time, what the compress call
// did: the tune on the sampled block (fresh cache, same seed and
// prediction), the blocked seal at the sealed bound, the container write,
// and beneath them one evaluator miss, the kernels block by block, and a
// plain copy of the same bytes as the bandwidth yardstick. The tune, seal
// and write spans name the end-to-end span as their parent, so its self time
// is what none of them accounts for.
func (ls *layerStats) replayCompress(ctx context.Context, r replay) {
	fail := func(err error) { ls.add("replay.errors", 1); fmt.Println("replay:", err) }
	comp, err := pressio.New(r.res.Codec)
	if err != nil {
		fail(err)
		return
	}
	buf, err := bufferOf(r.job)
	if err != nil {
		fail(err)
		return
	}
	plan, err := blocks.Plan(buf.Shape, r.res.Blocks)
	if err != nil {
		fail(err)
		return
	}
	sample := buf
	if len(plan) > 1 {
		if sample, err = buf.Slice(plan[r.res.SampleBlock]); err != nil {
			fail(err)
			return
		}
	}

	// core: the search alone.
	obj := core.FixedRatio(r.job.req.Target)
	if r.objective == "psnr" {
		obj = core.FixedPSNR(r.job.req.Target)
	}
	tuner, err := core.NewTuner(comp, core.Config{Objective: obj, Workers: r.workers, Seed: r.job.seed, Cache: pressio.NewCache()})
	if err != nil {
		fail(err)
		return
	}
	var tuned core.Result
	_, took := ls.time("core.tune", r.op, r.parent, func() {
		tuned, err = tuner.TuneWithPrediction(ctx, sample, r.job.prediction)
	})
	if err != nil {
		fail(err)
		return
	}
	if tuned.Iterations > 0 {
		ls.add("core.ms_per_eval", took.Seconds()*1e3/float64(tuned.Iterations))
	}

	// pressio: the seal at the bound the real call sealed at.
	var cn container.Container
	_, sealTook := ls.time("pressio.seal", r.op, r.parent, func() {
		cn, err = pressio.SealBlocked(ctx, comp, buf, r.res.ErrorBound, r.res.Blocks, r.workers)
	})
	if err != nil {
		fail(err)
		return
	}

	// container: the write, into memory as the real call did.
	var out bytes.Buffer
	out.Grow(cn.EncodedSize())
	_, writeTook := ls.time("container.write", r.op, r.parent, func() {
		_, err = cn.WriteTo(&out)
	})
	if err != nil {
		fail(err)
		return
	}
	ls.add("container.write_mbps", mbps(out.Len(), writeTook))
	ls.add("container.overhead_bytes", float64(out.Len()-len(cn.Payload)))

	// kernels, one block after another, so their sum over the seal's wall
	// time is the speed-up the block parallelism bought.
	var kernelSum time.Duration
	scratch := make([]byte, sample.Bytes())
	for _, b := range plan {
		blk := buf
		if len(plan) > 1 {
			if blk, err = buf.Slice(b); err != nil {
				fail(err)
				return
			}
		}
		var payload []byte
		_, ct := ls.time("kernel.compress", r.op, -1, func() { payload, err = comp.Compress(blk, r.res.ErrorBound) })
		if err != nil {
			fail(err)
			return
		}
		kernelSum += ct
		ls.add("kernel.compress_mbps", mbps(blk.Bytes(), ct))
		ls.add("kernel.bytes_out", float64(len(payload)))
		_, dt := ls.time("kernel.decompress", r.op, -1, func() { _, err = comp.Decompress(payload, blk.Shape, blk.DType()) })
		if err != nil {
			fail(err)
			return
		}
		ls.add("kernel.decompress_mbps", mbps(blk.Bytes(), dt))
		if raw := blk.RawBytes(); len(raw) <= len(scratch) {
			_, cp := ls.time("kernel.copy", r.op, -1, func() { copy(scratch, raw) })
			ls.add("kernel.copy_mbps", mbps(len(raw), cp))
		}
	}
	lanes := len(plan)
	if w := effectiveWorkers(r.workers); w < lanes {
		lanes = w
	}
	ls.add("pressio.seal_self_ms", math.Max(0, (sealTook-kernelSum/time.Duration(lanes)).Seconds()*1e3))
	ls.add("pressio.block_speedup", kernelSum.Seconds()/sealTook.Seconds())

	// One evaluator miss of the kind the search pays per evaluation, and the
	// fingerprint every tune pays once.
	ls.time("pressio.fingerprint", r.op, -1, func() { pressio.Fingerprint(sample) })
	ev := pressio.NewEvaluator(pressio.NewCache(), comp, sample)
	if r.objective == "psnr" {
		ls.time("pressio.eval_full", r.op, -1, func() { _, _, err = ev.Full(r.res.ErrorBound) })
		if err != nil {
			fail(err)
			return
		}
		payload, err := comp.Compress(sample, r.res.ErrorBound)
		if err != nil {
			fail(err)
			return
		}
		dec, err := comp.Decompress(payload, sample.Shape, sample.DType())
		if err != nil {
			fail(err)
			return
		}
		ls.time("metrics.report", r.op, -1, func() { _, err = pressio.Evaluate(sample, dec, len(payload)) })
	} else {
		ls.time("pressio.eval_ratio", r.op, -1, func() { _, _, _, err = ev.Ratio(r.res.ErrorBound) })
	}
	if err != nil {
		fail(err)
	}
}

func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// replayDecompress re-executes the two layers of a decompress call: the
// container read and the (block-parallel) open.
func (ls *layerStats) replayDecompress(ctx context.Context, op, parent int, archive []byte) {
	var cn container.Container
	var err error
	_, readTook := ls.time("container.read", op, parent, func() { _, err = cn.ReadFrom(bytes.NewReader(archive)) })
	if err != nil {
		ls.add("replay.errors", 1)
		fmt.Println("replay:", err)
		return
	}
	ls.add("container.read_mbps", mbps(len(archive), readTook))
	ls.time("pressio.open", op, parent, func() { _, err = pressio.OpenBlocked(ctx, cn, 0) })
	if err != nil {
		ls.add("replay.errors", 1)
		fmt.Println("replay:", err)
	}
}

// replayOptim times the search's own bookkeeping: FindGlobalMin on an
// objective that costs nothing, at the tuner's per-region iteration cap.
func (ls *layerStats) replayOptim() {
	for i := 0; i < 200; i++ {
		var res optim.Result
		var err error
		_, took := ls.rec.Time("optim.search", -1, -1, func() {
			res, err = optim.FindGlobalMin(func(x float64) float64 { return (x - 0.3) * (x - 0.3) }, optim.Options{
				Lower: 0, Upper: 1, MaxIterations: core.DefaultMaxIterationsPerRegion, Cutoff: -1, Seed: int64(i),
			})
		})
		if err == nil && res.Iterations > 0 {
			ls.add("optim.us_per_iter", took.Seconds()*1e6/float64(res.Iterations))
		}
	}
}

// layerMetric declares one per-layer metric: how BENCHMARK.json lists it and
// where its value comes from.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics is every per-layer metric, in the order of the stack. The
// times are as timed: machine.slowdown, the run's mean speed-probe time over
// its undisturbed time, says by how much the machine stretched them. A
// metric reads 0 on a workload whose path does not cross its layer (server.*
// outside frazd-mixed, metrics.report_ms outside psnr-search) and where a
// percentile has too few samples to be reported.
var layerMetrics = []layerMetric{
	{"kernel.compress_ms", "ms", "lower"},
	{"kernel.decompress_ms", "ms", "lower"},
	{"kernel.compress_mbps", "MB/s", "higher"},
	{"kernel.decompress_mbps", "MB/s", "higher"},
	{"kernel.copy_mbps", "MB/s", "higher"},
	{"kernel.bytes_out", "bytes", "lower"},
	{"pressio.seal_ms", "ms", "lower"},
	{"pressio.open_ms", "ms", "lower"},
	{"pressio.seal_self_ms", "ms", "lower"},
	{"pressio.block_speedup", "x", "higher"},
	{"pressio.eval_ratio_ms", "ms", "lower"},
	{"pressio.eval_full_ms", "ms", "lower"},
	{"pressio.fingerprint_ms", "ms", "lower"},
	{"pressio.cache_hit_frac", "frac", "higher"},
	{"metrics.report_ms", "ms", "lower"},
	{"container.write_ms", "ms", "lower"},
	{"container.read_ms", "ms", "lower"},
	{"container.write_mbps", "MB/s", "higher"},
	{"container.read_mbps", "MB/s", "higher"},
	{"container.overhead_bytes", "bytes", "lower"},
	{"core.tune_ms", "ms", "lower"},
	{"core.tune_p90_ms", "ms", "lower"},
	{"core.evals_per_op", "count", "lower"},
	{"core.ms_per_eval", "ms", "lower"},
	{"core.useful_eval_frac", "frac", "higher"},
	{"core.cache_hits_per_op", "count", "higher"},
	{"core.prediction_hit_frac", "frac", "higher"},
	{"core.direct_frac", "frac", "higher"},
	{"core.infeasible_frac", "frac", "lower"},
	{"optim.us_per_iter", "us", "lower"},
	{"fraz.compress_ms", "ms", "lower"},
	{"fraz.compress_p90_ms", "ms", "lower"},
	{"fraz.decompress_ms", "ms", "lower"},
	{"fraz.overhead_ms", "ms", "lower"},
	{"fraz.allocs_per_op", "count", "lower"},
	{"fraz.alloc_mb_per_op", "MB", "lower"},
	{"server.upload_ms", "ms", "lower"},
	{"server.replay_ms", "ms", "lower"},
	{"server.download_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.cache_hit_frac", "frac", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.unaccounted_frac", "frac", "lower"},
	{"machine.slowdown", "x", "lower"},
}

// searchCounts folds what the traced compress calls said about their
// searches into the core.* and pressio.cache_hit_frac samples.
func (ls *layerStats) searchCounts(t *tally) {
	var ops, ok, evals, hits, predicted, direct, attempts, infeasible float64
	for _, op := range t.ops {
		if op.kind != opCompress {
			continue
		}
		ops++
		evals += float64(op.evals)
		hits += float64(op.hits)
		attempts += float64(1 + op.retries)
		infeasible += float64(op.retries)
		if op.ok {
			ok++
		}
		if op.predicted {
			predicted++
		}
		if op.direct {
			direct++
		}
		if op.infeasible {
			infeasible++
		}
	}
	if ops == 0 {
		return
	}
	ls.add("core.evals_per_op", evals/ops)
	ls.add("core.cache_hits_per_op", hits/ops)
	ls.add("core.prediction_hit_frac", predicted/ops)
	ls.add("core.direct_frac", direct/ops)
	ls.add("core.infeasible_frac", infeasible/attempts)
	if evals > 0 {
		ls.add("core.useful_eval_frac", ok/evals)
		ls.add("pressio.cache_hit_frac", hits/evals)
	}
}

// finish derives the metrics that compare spans with each other and returns
// every declared per-layer metric. plainP50 is the median compress latency
// of the run's untraced rounds.
func (ls *layerStats) finish(traced *tally, plainP50 float64) map[string]metric {
	ls.searchCounts(traced)
	var endToEnd, unaccounted time.Duration
	for _, b := range trace.Breakdowns(ls.rec.Spans()) {
		if b.Parent == "fraz.compress" {
			ls.add("fraz.overhead_ms", b.Unaccounted.Seconds()*1e3/float64(b.Calls))
		}
		// A direct call replayed beneath an upload is a parent and a child;
		// only the outermost spans are end to end.
		if b.Parent == "fraz.compress" && len(ls.samples["server.upload"]) > 0 {
			continue
		}
		endToEnd += b.Total
		unaccounted += b.Unaccounted
	}
	if endToEnd > 0 {
		ls.add("trace.unaccounted_frac", unaccounted.Seconds()/endToEnd.Seconds())
	}
	if p50, err := traced.compressP50(); err == nil && plainP50 > 0 {
		ls.add("trace.overhead_frac", (p50-plainP50)/plainP50)
	}

	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m := metric{Unit: lm.unit}
		xs := ls.samples[lm.name]
		switch {
		case strings.HasSuffix(lm.name, "_p90_ms"):
			xs = ls.samples[strings.TrimSuffix(lm.name, "_p90_ms")]
			if v, err := stats.Percentile(xs, 90); err == nil {
				m.Value, m.n = v, len(xs)
			}
		default:
			if xs == nil && strings.HasSuffix(lm.name, "_ms") {
				xs = ls.samples[strings.TrimSuffix(lm.name, "_ms")]
			}
			if v, err := stats.Median(xs); err == nil {
				m.Value, m.n = v, len(xs)
			}
		}
		out[lm.name] = m
	}
	return out
}

// shareTable renders "where one operation's wall-clock goes": each
// end-to-end span's time split over the layer calls replayed beneath it.
func (ls *layerStats) shareTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "where one operation's wall-clock goes (replayed calls of the traced rounds)\n")
	for _, bd := range trace.Breakdowns(ls.rec.Spans()) {
		fmt.Fprintf(&b, "  %s: %d calls, %.2f ms each\n", bd.Parent, bd.Calls, bd.Total.Seconds()*1e3/float64(bd.Calls))
		for _, c := range bd.Children {
			fmt.Fprintf(&b, "    %-22s %6.1f%%\n", c.Name, 100*c.Total.Seconds()/bd.Total.Seconds())
		}
		fmt.Fprintf(&b, "    %-22s %6.1f%%\n", "(unaccounted)", 100*bd.Unaccounted.Seconds()/bd.Total.Seconds())
	}
	return b.String()
}
