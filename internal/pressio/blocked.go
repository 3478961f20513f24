package pressio

import (
	"context"
	"fmt"

	"fraz/internal/blocks"
	"fraz/internal/container"
	"fraz/internal/metrics"
	"fraz/internal/parallel"
	"fraz/internal/pool"
)

// This file implements the blocked (format v2) seal/open path: the buffer is
// split along its slowest axis into independent sub-buffers, each compressed
// and decompressed on its own — turning one monolithic compressor invocation
// into an embarrassingly parallel batch, the structure SZx's fixed-size
// block pipeline and FZ-GPU's block-parallel kernels exploit for their
// throughput. Every block is a complete N-d field, so the existing codecs
// run on blocks unchanged; the container's block index (per-block offset,
// length, CRC) is what lets Open decode the blocks concurrently too.

// recyclePayload returns a dead block payload to the byte pool. It is a
// variable so the failure-path tests can count the calls: sync.Pool drops
// items at random under the race detector, so what comes back out of the
// pool proves nothing there.
var recyclePayload = pool.Put[byte]

// SealBlocked compresses the buffer as numBlocks independent slowest-axis
// blocks at the given bound (snapped to the codec's domain, like Seal),
// running up to `workers` compressions concurrently (0 = GOMAXPROCS), and
// wraps the payloads in a version-2 blocked container. numBlocks <= 1 (or a
// shape whose slowest axis cannot be split) falls back to the monolithic
// Seal and a version-1 container, so callers can pass the requested block
// count straight through.
//
// The recorded ratio is the achieved whole-field ratio: uncompressed bytes
// over the summed block payload sizes (index overhead excluded, matching how
// Seal reports the monolithic payload ratio).
func SealBlocked(ctx context.Context, c Compressor, buf Buffer, bound float64, numBlocks, workers int) (container.Container, error) {
	// The monolithic fallback below never consults ctx (Seal is
	// synchronous), so honour a cancellation that happened before the call
	// either way — symmetric with OpenBlocked.
	if err := ctx.Err(); err != nil {
		return container.Container{}, err
	}
	d := c.Descriptor()
	bound = d.Param.Snap(bound)
	plan, err := blocks.Plan(buf.Shape, numBlocks)
	if err != nil {
		return container.Container{}, fmt.Errorf("pressio: seal blocked with %s: %w", d.Name, err)
	}
	if len(plan) <= 1 {
		return Seal(c, buf, bound)
	}
	payloads := make([][]byte, len(plan))
	err = parallel.ForEach(ctx, len(plan), workers, func(ctx context.Context, i int) error {
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
		// ForEach has drained its workers, so every non-nil payload is a
		// completed compression nobody will consume — a cancellation (or one
		// block's failure) must hand them back to the pool, or every aborted
		// seal leaks one buffer per finished block.
		for _, p := range payloads {
			if p != nil {
				recyclePayload(p)
			}
		}
		return container.Container{}, fmt.Errorf("pressio: seal blocked with %s: %w", d.Name, err)
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	ratio := metrics.CompressionRatio(buf.Bytes(), total)
	cn, err := container.NewBlocked(d.Name, bound, ratio, buf.DType(), buf.Shape, payloads)
	// NewBlocked copied every payload into the container's contiguous
	// payload area, so the per-block buffers are dead — recycle them for the
	// next seal's compressions. (The monolithic Seal path must NOT do this:
	// container.New keeps its payload by reference.)
	for _, p := range payloads {
		recyclePayload(p)
	}
	return cn, err
}

// OpenBlocked reconstructs the buffer of a blocked (version-2) container,
// decompressing up to `workers` blocks concurrently (0 = GOMAXPROCS).
// Monolithic containers are routed to Open, so OpenBlocked accepts any
// container.
func OpenBlocked(ctx context.Context, cn container.Container, workers int) (Buffer, error) {
	// The monolithic route below never consults ctx (Open is synchronous),
	// so honour a cancellation that happened before the call either way.
	if err := ctx.Err(); err != nil {
		return Buffer{}, err
	}
	if cn.Blocks == nil {
		return Open(cn)
	}
	if err := checkDType(cn.Header.DType); err != nil {
		return Buffer{}, err
	}
	c, err := New(cn.Header.Codec)
	if err != nil {
		return Buffer{}, err
	}
	plan, err := blocks.Plan(cn.Header.Shape, len(cn.Blocks))
	if err != nil {
		return Buffer{}, fmt.Errorf("pressio: open blocked %s container: %w", cn.Header.Codec, err)
	}
	if len(plan) != len(cn.Blocks) {
		return Buffer{}, fmt.Errorf("pressio: open blocked %s container: %d blocks indexed, shape %s splits into %d",
			cn.Header.Codec, len(cn.Blocks), cn.Header.Shape, len(plan))
	}
	out := newZeroBuffer(cn.Header.DType, cn.Header.Shape)
	err = parallel.ForEach(ctx, len(plan), workers, func(ctx context.Context, i int) error {
		payload, err := cn.BlockPayload(i)
		if err != nil {
			return err
		}
		dec, err := c.Decompress(payload, plan[i].Shape, cn.Header.DType)
		if err != nil {
			return fmt.Errorf("block %d (%s): %w", i, plan[i].Shape, err)
		}
		if err := out.scatterFrom(plan[i], dec); err != nil {
			// The decoded block is dead on this path too: recycle it before
			// surfacing the error, symmetric with the success path below.
			dec.recycle()
			return err
		}
		// The block's decode buffer is dead once scattered into out;
		// recycle it so the pool-aware codecs allocate each block buffer
		// once per pipeline instead of once per block.
		dec.recycle()
		return nil
	})
	if err != nil {
		return Buffer{}, fmt.Errorf("pressio: open blocked %s container: %w", cn.Header.Codec, err)
	}
	return out, nil
}
