package core

import (
	"context"
	"fmt"
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

// SealResult reports what SealBlocked did: the tuning outcome on the
// sampled block and the final whole-field seal.
type SealResult struct {
	// Tuning is the search result on the sampled block. Its AchievedRatio
	// and CompressedSize refer to that block alone.
	Tuning Result
	// SampleBlock is the index of the block the bound was tuned on.
	SampleBlock int
	// Blocks is the number of blocks sealed (1 = monolithic fallback).
	Blocks int
	// AchievedRatio is the whole-field compression ratio of the sealed
	// container (the ratio recorded in its header).
	AchievedRatio float64
	// AchievedValue is the whole-field value of the tuned objective (the
	// value recorded in the container's objective extension; for the
	// fixed-ratio objective it equals AchievedRatio).
	AchievedValue float64
}

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
// (PlanBlocks) and compresses the other blocks concurrently at the tuned
// bound, returning the ready-to-encode container; the sampled block's payload
// is the winning evaluation's stream (pressio.SealWith). With Blocks <= 1 (or
// a shape that cannot be split) the result is a monolithic version-1
// container sealed at a bound tuned on the full buffer — the winning
// evaluation is then the whole archive — so callers can use SealBlocked
// unconditionally. A tune that misses the acceptance band seals nothing: the
// error is the *InfeasibleError (errors.Is(err, ErrInfeasible)) and the
// SealResult still carries the tuning outcome.
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
	out := SealResult{Blocks: layout.Blocks, SampleBlock: layout.SampleBlock}
	res, sampled, err := t.tune(ctx, layout.Sample, opts.Prediction)
	if err != nil {
		return container.Container{}, SealResult{}, fmt.Errorf("fraz: seal blocked: tuning sample block %d: %w", out.SampleBlock, err)
	}
	out.Tuning = res
	if err := res.Check(); err != nil {
		return container.Container{}, out, err
	}

	cn, err := pressio.SealWith(ctx, t.compressor, buf, res.ErrorBound, layout.Blocks, layout.Workers, layout.SampleBlock, sampled)
	if err != nil {
		return container.Container{}, SealResult{}, err
	}
	out.Blocks = len(cn.Blocks)
	out.AchievedRatio = cn.Header.Ratio
	if t.obj.Name != "ratio" {
		// Record the archive's promise in the container header. The archive
		// is the whole field compressed at the tuned bound — the winning
		// evaluation's own stream when it ran in this tune — so the tuned
		// achieved value is exactly what a verifier recomputes from it.
		out.AchievedValue = res.AchievedValue
		cn.Header.Objective = container.Objective{
			Name:      t.obj.Name,
			Target:    t.obj.Target,
			Tolerance: t.obj.HalfWidth(),
			Achieved:  out.AchievedValue,
		}
	} else {
		out.AchievedValue = cn.Header.Ratio
	}
	return cn, out, nil
}
