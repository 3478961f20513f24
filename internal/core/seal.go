package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"fraz/internal/blocks"
	"fraz/internal/container"
	"fraz/internal/pressio"
)

// This file implements the blocked sealing path: instead of tuning and
// compressing one monolithic buffer — which serialises the whole hot path
// onto a single compressor invocation — the field is split along its
// slowest axis, the error bound is tuned once on a single sampled block,
// and the other blocks are then compressed concurrently at that bound into
// a version-2 (blocked) container; the sampled block's payload is the
// winning evaluation's stream, unless the evaluation cache answered it.
// Tuning cost drops with the sample size (each search evaluation compresses
// one block, not the whole field) and the final compression parallelises
// across however many cores are available, which is where the fixed-ratio
// workflow spends its time.

// SealOptions controls Tuner.SealBlocked.
type SealOptions struct {
	// Blocks is the number of slowest-axis blocks, compressed Config.Workers
	// at a time. Zero picks blocks.DefaultCount for that worker count; 1
	// seals monolithically (a version-1 container).
	Blocks int
	// Prediction, when positive, is an error bound to try before training —
	// typically the bound the previous time-step sealed at (Algorithm 3's
	// reuse). If it lands in the acceptance band the search is skipped.
	Prediction float64
}

// SealResult reports what SealBlocked did that the container header does
// not say: how the bound was tuned, and on which block.
type SealResult struct {
	// Tuning is the search result on the sampled block: its AchievedRatio
	// and CompressedSize refer to that block alone. Evaluations lists every
	// tune the seal ran, corrective ones after the first, and its counters
	// and Elapsed cover them all.
	Tuning Result
	// SampleBlock is the index of the block the bound was tuned on.
	SampleBlock int
}

// correctiveSteps is how many times SealBlocked re-tunes the sample for a
// ratio archive that missed the band before it reports the closest archive
// as infeasible.
const correctiveSteps = 2

// BlockLayout is how a field is split for a blocked seal, and which block
// stands in for the whole while a bound is tuned.
type BlockLayout struct {
	// Workers is the resolved concurrency and Blocks the number of blocks
	// the shape splits into (1 = monolithic).
	Workers, Blocks int
	// Sample is block SampleBlock — the middle one: on the
	// spatially-coherent fields FRaZ targets, the interior is more
	// representative of the whole than a boundary block — or the whole
	// buffer when there is only one.
	Sample      pressio.Buffer
	SampleBlock int
}

// PlanBlocks resolves a requested block and worker count (zero or less:
// choose for me) into the layout every sealing path shares: workers default
// to GOMAXPROCS — resolved here rather than left to parallel.ForEach,
// because blocks.DefaultCount needs the real count, else the default
// configuration would degenerate to one block — and blocks to
// blocks.DefaultCount for those workers, clamped by blocks.Plan to what the
// shape can split into.
func PlanBlocks(buf pressio.Buffer, numBlocks, workers int) (BlockLayout, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if numBlocks <= 0 {
		numBlocks = blocks.DefaultCount(buf.Shape, workers)
	}
	plan, err := blocks.Plan(buf.Shape, numBlocks)
	if err != nil {
		return BlockLayout{}, err
	}
	out := BlockLayout{Workers: workers, Blocks: len(plan), Sample: buf, SampleBlock: len(plan) / 2}
	if len(plan) > 1 {
		out.Sample, err = buf.Slice(plan[out.SampleBlock])
	}
	return out, err
}

// SealBlocked tunes the error bound on one sampled block of the buffer
// (PlanBlocks), compresses the other blocks concurrently at the tuned bound,
// and judges the archive: the returned container is in band, or the error is
// an *InfeasibleError (errors.Is(err, ErrInfeasible)). The sampled block's
// payload is the winning evaluation's stream (pressio.SealWith). A ratio is a
// property of the bytes, so the blocks need not compress like the sample: a
// ratio archive that misses the band rescales the sample's target by sample
// ratio ÷ archive ratio and tunes again, from the bound it sealed, at most
// correctiveSteps times; the error then names the caller's target and the
// ratio, bound and payload bytes of the archive that came closest, also when
// the sample cannot reach a rescaled target. A first tune that misses its
// band seals nothing, and the error is the tune's. With Blocks <= 1 (or a
// shape that cannot be split) the result is a monolithic version-1 container
// sealed at a bound tuned on the full buffer — the winning evaluation is then
// the whole archive, judged by the tune — so callers can use SealBlocked
// unconditionally. Quality objectives always seal that way.
func (t *Tuner) SealBlocked(ctx context.Context, buf pressio.Buffer, opts SealOptions) (container.Container, SealResult, error) {
	if t.obj.Quality {
		// Quality objectives tune — and seal — the whole field monolithically.
		// PSNR and SSIM are global statistics, so a sampled block's quality
		// does not bound the field's; and independently compressing blocks
		// shifts transform alignment and prediction contexts, changing the
		// reconstruction the promise was measured on. A monolithic seal
		// archives the tuned evaluation's own payload, so the recorded
		// achieved value is exact.
		opts.Blocks = 1
	}
	layout, err := PlanBlocks(buf, opts.Blocks, t.cfg.Workers)
	if err != nil {
		return container.Container{}, SealResult{}, fmt.Errorf("fraz: seal blocked: %w", err)
	}
	out := SealResult{SampleBlock: layout.SampleBlock}
	tu, prediction := *t, opts.Prediction
	var closest *Result
	for step := 0; step <= correctiveSteps; step++ {
		res, sampled, err := tu.tune(ctx, layout.Sample, prediction)
		if err != nil {
			return container.Container{}, SealResult{}, fmt.Errorf("fraz: seal blocked: tuning sample block %d: %w", out.SampleBlock, err)
		}
		res.Evaluations = append(out.Tuning.Evaluations, res.Evaluations...)
		res.Elapsed += out.Tuning.Elapsed
		res.count()
		out.Tuning = res
		if err := res.Check(); err != nil {
			if closest != nil {
				break // the sample cannot reach the rescaled target
			}
			return container.Container{}, out, err
		}
		cn, err := pressio.SealWith(ctx, t.compressor, buf, res.ErrorBound, layout.Blocks, layout.Workers, layout.SampleBlock, sampled)
		if err != nil {
			return container.Container{}, SealResult{}, err
		}
		if t.obj.Quality {
			// Record the archive's promise in the container header. The
			// archive is the whole field compressed at the tuned bound — the
			// winning evaluation's own stream when it ran in this tune — so
			// the tuned achieved value is exactly what a verifier recomputes
			// from it.
			cn.Header.Objective = container.Objective{
				Name:      t.obj.Name,
				Target:    t.obj.Target,
				Tolerance: t.obj.HalfWidth(),
				Achieved:  res.AchievedValue,
			}
		}
		if t.obj.Quality || t.obj.InBand(cn.Header.Ratio) {
			return cn, out, nil
		}
		// The archive missed: as a Result, it is the sample's tune with the
		// archive's ratio, bound and size.
		miss := res
		miss.Feasible, miss.ErrorBound, miss.CompressedSize = false, cn.Header.Bound, len(cn.Payload)
		miss.AchievedRatio, miss.AchievedValue = cn.Header.Ratio, cn.Header.Ratio
		if closest == nil || math.Abs(miss.AchievedRatio-t.obj.Target) < math.Abs(closest.AchievedRatio-t.obj.Target) {
			closest = &miss
		}
		tu.obj.Target, prediction = t.obj.Target*res.AchievedRatio/cn.Header.Ratio, res.ErrorBound
	}
	return container.Container{}, out, closest.Check()
}
