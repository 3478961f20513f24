package pressio

import (
	"context"
	"fmt"

	"fraz/internal/blocks"
	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/metrics"
	"fraz/internal/parallel"
)

// This file is the one seal/open path. A field is split along its slowest
// axis into independent sub-buffers, each compressed and decompressed on its
// own — turning one compressor invocation into an embarrassingly parallel
// batch, the structure SZx's fixed-size block pipeline and FZ-GPU's
// block-parallel kernels exploit for their throughput. Every block is a
// complete N-d field, so the existing codecs run on blocks unchanged, and the
// container's block index (per-block offset, length, CRC) is what lets
// OpenBlocked decode the blocks concurrently too. A monolithic seal or open
// is the same path with one block: its lone task runs on the caller's
// goroutine (parallel.ForEach), and the container package writes one block in
// the version-1 layout.

// SealBlocked compresses the buffer at the given parameter value (snapped to
// the codec's domain, so what is recorded is what was run) and wraps the
// result in a self-describing container carrying the codec name, that value,
// the achieved ratio, the element type and the shape — everything
// OpenBlocked needs to reverse it. The buffer is compressed as numBlocks
// independent slowest-axis blocks, up to `workers` at a time (0 =
// GOMAXPROCS); numBlocks <= 1 (or a shape whose slowest axis cannot be
// split) is one block, which the container writes as version 1, so callers
// can pass the requested block count straight through.
//
// The recorded ratio is the achieved whole-field ratio: uncompressed bytes
// over the summed payload sizes (index overhead excluded). SealWith is this
// seal with one block's stream already in hand.
func SealBlocked(ctx context.Context, c Compressor, buf Buffer, bound float64, numBlocks, workers int) (container.Container, error) {
	return SealWith(ctx, c, buf, bound, numBlocks, workers, 0, nil)
}

// SealWith is SealBlocked with block `block`'s stream in hand — a tune's
// winning evaluation of that block — sealed as it is. It must be what
// c.Compress returns for that block at Param.Snap(bound), which an
// evaluation's stream is: it ran at Param.Slot(bound), which Snap keeps. A
// nil stream is compressed like every other block.
func SealWith(ctx context.Context, c Compressor, buf Buffer, bound float64, numBlocks, workers, block int, stream []byte) (container.Container, error) {
	d := c.Descriptor()
	bound = d.Param.Snap(bound)
	plan, err := blocks.Plan(buf.Shape, numBlocks)
	if err != nil {
		return container.Container{}, fmt.Errorf("pressio: seal with %s: %w", d.Name, err)
	}
	payloads := make([][]byte, len(plan))
	if stream != nil {
		if block < 0 || block >= len(plan) {
			return container.Container{}, fmt.Errorf("pressio: seal with %s: block %d in hand, the plan has %d", d.Name, block, len(plan))
		}
		payloads[block] = stream
	}
	err = parallel.ForEach(ctx, len(plan), workers, func(ctx context.Context, i int) error {
		if payloads[i] != nil {
			return nil // in hand
		}
		sub, err := buf.Slice(plan[i])
		if err != nil {
			return err
		}
		p, err := c.Compress(sub, bound)
		if err != nil {
			return fmt.Errorf("block %d (%s): %w", i, sub.Shape, err)
		}
		payloads[i] = p
		return nil
	})
	if err != nil {
		return container.Container{}, fmt.Errorf("pressio: seal with %s: %w", d.Name, err)
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	ratio := metrics.CompressionRatio(buf.Bytes(), total)
	return container.New(d.Name, bound, ratio, buf.DType(), buf.Shape, payloads)
}

// OpenBlocked routes a decoded container to the codec named in its header
// and reconstructs the original buffer at the element width the header
// records. It is the inverse of SealBlocked and the only decompression entry
// point that needs no out-of-band knowledge. The output is allocated once,
// and every block of the index is decoded straight into its slice of it
// (slowest-axis blocks are contiguous), up to `workers` at a time (0 =
// GOMAXPROCS).
//
// Nothing is allocated for a header that claims more values than its
// payload can carry (grid.MaxElementsPerByte per byte): the container's CRCs
// cover the payload, not the shape, so a forged header of a hundred bytes
// could otherwise demand any allocation it liked.
func OpenBlocked(ctx context.Context, cn container.Container, workers int) (Buffer, error) {
	c, err := lookup(cn.Header.Codec)
	if err != nil {
		return Buffer{}, err
	}
	shape := cn.Header.Shape
	if n := shape.Len(); n > grid.MaxElementsPerByte*len(cn.Payload) {
		return Buffer{}, fmt.Errorf("pressio: open %s container: %w: shape %v holds %d values, more than %d payload bytes can carry",
			cn.Header.Codec, ErrPayload, shape, n, len(cn.Payload))
	}
	plan, err := blocks.Plan(shape, len(cn.Blocks))
	if err != nil {
		return Buffer{}, fmt.Errorf("pressio: open %s container: %w", cn.Header.Codec, err)
	}
	if len(plan) != len(cn.Blocks) {
		return Buffer{}, fmt.Errorf("pressio: open %s container: %d blocks indexed, shape %s splits into %d",
			cn.Header.Codec, len(cn.Blocks), shape, len(plan))
	}
	out, err := c.output(shape, cn.Header.DType)
	if err != nil {
		return Buffer{}, fmt.Errorf("pressio: open %s container: %w", cn.Header.Codec, err)
	}
	err = parallel.ForEach(ctx, len(plan), workers, func(ctx context.Context, i int) error {
		payload, err := cn.BlockPayload(i)
		if err != nil {
			return err
		}
		sub, err := out.Slice(plan[i])
		if err != nil {
			return err
		}
		if err := c.decode(payload, sub); err != nil {
			return fmt.Errorf("block %d (%s): %w", i, plan[i].Shape, err)
		}
		return nil
	})
	if err != nil {
		return Buffer{}, fmt.Errorf("pressio: open %s container: %w", cn.Header.Codec, err)
	}
	return out, nil
}
