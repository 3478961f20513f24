package fraz_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"fraz"
	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/pressio"
)

// testBound picks a tunable-parameter value appropriate to each codec's
// bound semantics, keyed by the descriptor the test is validating.
func testBound(info fraz.CodecInfo) float64 {
	switch info.Name {
	case "zfp:rate", "frsz:rate":
		return 16 // bits per value
	case "zfp:precision":
		return 24 // bit planes per block
	case "sz:rel":
		return 1e-3 // fraction of the value range
	case "mgard:l2":
		return 1e-4 // mean-squared-error budget
	default:
		return 1e-3 // absolute pointwise bound
	}
}

func smoothField(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/9)*40 + math.Cos(float64(i)/23)*15
	}
	return data
}

// TestCodecsDescriptors validates every published capability descriptor:
// the registry agrees with LookupCodec, the rank window is sane, and — per
// dtype — the codec actually round-trips and honors the claim its
// descriptor makes (lossless reconstruction, pointwise bound, relative
// bound, or MSE budget).
func TestCodecsDescriptors(t *testing.T) {
	infos := fraz.Codecs()
	if len(infos) == 0 {
		t.Fatal("no codecs registered")
	}
	seen := map[string]bool{}
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			if info.Name == "" || info.BoundName == "" {
				t.Fatalf("descriptor with empty identity: %+v", info)
			}
			if seen[info.Name] {
				t.Fatalf("codec %q listed twice", info.Name)
			}
			seen[info.Name] = true

			got, ok := fraz.LookupCodec(info.Name)
			if !ok || got != info {
				t.Fatalf("LookupCodec(%q) = %+v, %v; want the listed descriptor", info.Name, got, ok)
			}
			if info.MinRank < 1 || info.MaxRank > 4 || info.MinRank > info.MaxRank {
				t.Fatalf("rank window [%d, %d] out of bounds", info.MinRank, info.MaxRank)
			}
			for rank := 0; rank <= 5; rank++ {
				want := rank >= info.MinRank && rank <= info.MaxRank
				if info.SupportsRank(rank) != want {
					t.Errorf("SupportsRank(%d) = %v, want %v", rank, !want, want)
				}
			}

			// Rank 2 sits inside every registered codec's window; fail
			// loudly if a future codec narrows past it rather than
			// silently skipping the round-trip.
			if !info.SupportsRank(2) {
				t.Fatalf("codec window [%d, %d] excludes rank 2; extend this test's shape selection", info.MinRank, info.MaxRank)
			}
			shape := grid.MustDims(24, 16)
			field := smoothField(24 * 16)

			t.Run("float32", func(t *testing.T) {
				data := make([]float32, len(field))
				for i, v := range field {
					data[i] = float32(v)
				}
				codecRoundTrip(t, info, data, shape)
			})
			t.Run("float64", func(t *testing.T) {
				codecRoundTrip(t, info, field, shape)
			})
		})
	}
}

func codecRoundTrip[T grid.Float](t *testing.T, info fraz.CodecInfo, data []T, shape grid.Dims) {
	t.Helper()
	comp, err := pressio.New(info.Name)
	if err != nil {
		t.Fatalf("pressio.New(%q): %v", info.Name, err)
	}
	buf, err := pressio.NewBufferOf(data, shape)
	if err != nil {
		t.Fatalf("building buffer: %v", err)
	}
	bound := testBound(info)
	stream, err := comp.Compress(buf, bound)
	if err != nil {
		t.Fatalf("compress at %s=%g: %v", info.BoundName, bound, err)
	}
	dec, err := comp.Decompress(stream, shape, buf.DType())
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if dec.Len() != buf.Len() || dec.DType() != buf.DType() {
		t.Fatalf("reconstruction shape/dtype mismatch: %d elements dtype %v, want %d dtype %v",
			dec.Len(), dec.DType(), buf.Len(), buf.DType())
	}

	orig, recon := bufFloat64(buf), bufFloat64(dec)
	maxErr, sumSq, lo, hi := 0.0, 0.0, math.Inf(1), math.Inf(-1)
	for i := range orig {
		d := math.Abs(orig[i] - recon[i])
		if d > maxErr {
			maxErr = d
		}
		sumSq += d * d
		lo = math.Min(lo, orig[i])
		hi = math.Max(hi, orig[i])
	}

	// float32 data carries narrowing rounding on top of whatever the codec
	// guarantees in its own arithmetic; allow a ULP-scale slack there.
	slack := 0.0
	var zero T
	if _, is32 := any(zero).(float32); is32 {
		slack = math.Max(math.Abs(lo), math.Abs(hi)) * 1e-6
	}

	switch {
	case info.Lossless:
		if maxErr != 0 {
			t.Errorf("lossless codec reconstructed with max error %g", maxErr)
		}
	case !info.ErrorBounded:
		// Rate/precision modes promise only a round-trip, verified above.
	case info.Name == "sz:rel":
		if limit := bound*(hi-lo) + slack; maxErr > limit {
			t.Errorf("range-relative bound violated: max error %g > %g", maxErr, limit)
		}
	case info.Name == "mgard:l2":
		if mse := sumSq / float64(len(orig)); mse > bound+slack*slack {
			t.Errorf("MSE bound violated: %g > %g", mse, bound)
		}
	default:
		if maxErr > bound+slack {
			t.Errorf("%s violated: max error %g > bound %g", info.BoundName, maxErr, bound)
		}
	}

	// A decoded field is the caller's own: a plain allocation of exactly its
	// length, whichever layout the archive has. 33×40×50 values is no power
	// of two, so a slice handed out at a size class's capacity would show.
	wide := grid.MustDims(33, 40, 50)
	field := make([]T, wide.Len())
	for i, v := range smoothField(len(field)) {
		field[i] = T(v)
	}
	type row struct {
		data  []T
		shape grid.Dims
	}
	rows := []row{{field, wide}}
	// A constant field of 2^22 values is the densest archive a codec writes
	// (sz and mgard reach thousands of values per byte): every one must open
	// under the guard that refuses a shape its payload cannot carry. The
	// race detector makes these rows ten times slower and has nothing to find
	// in them that the small field does not already exercise.
	if !raceEnabled {
		dense := grid.MustDims(256, 128, 128)
		constant := make([]T, dense.Len())
		for i := range constant {
			constant[i] = 1.5
		}
		rows = append(rows, row{constant, dense})
	}
	for _, row := range rows {
		for _, numBlocks := range []int{1, 4} {
			var archive bytes.Buffer
			if _, err := fraz.Compress(context.Background(), &archive, row.data, row.shape,
				fraz.Codec(info.Name), fraz.FixedBound(bound), fraz.Blocks(numBlocks)); err != nil {
				t.Fatalf("%v, Blocks(%d): compress: %v", row.shape, numBlocks, err)
			}
			res, err := fraz.DecompressFull(context.Background(), &archive)
			if err != nil {
				t.Fatalf("%v, Blocks(%d): decompress: %v", row.shape, numBlocks, err)
			}
			if n := len(res.Data) + len(res.Data64); n != len(row.data) || cap(res.Data) != len(res.Data) || cap(res.Data64) != len(res.Data64) {
				t.Errorf("%v, Blocks(%d): decoded %d of %d values with capacity %d behind them",
					row.shape, numBlocks, n, len(row.data), cap(res.Data)+cap(res.Data64))
			}
		}
	}
}

func bufFloat64(b pressio.Buffer) []float64 {
	if b.DType() == 0 {
		src := b.Float32()
		out := make([]float64, len(src))
		for i, v := range src {
			out[i] = float64(v)
		}
		return out
	}
	return b.Float64()
}

// TestRecordedParameterIsTheOneTheCodecRanAt tunes every registered lossy
// codec into a monolithic archive, then compresses the same field again at
// nothing but the parameter value the first call reported. The two payloads
// must be byte-identical — the header, CompressResult.ErrorBound and the
// stream agree — and on a whole-number domain the reported value is a whole
// number, not the real the search happened to propose.
func TestRecordedParameterIsTheOneTheCodecRanAt(t *testing.T) {
	data, shape := testField()
	ctx := context.Background()
	for _, info := range fraz.Codecs() {
		if info.Lossless {
			continue // the parameter is ignored; there is nothing to record
		}
		var tuned bytes.Buffer
		var res *fraz.CompressResult
		var err error
		for _, target := range []float64{8, 4, 16} {
			tuned.Reset()
			res, err = fraz.Compress(ctx, &tuned, data, shape,
				fraz.Codec(info.Name), fraz.Ratio(target), fraz.Blocks(1), fraz.Seed(1))
			if !errors.Is(err, fraz.ErrInfeasible) {
				break
			}
		}
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
			continue
		}
		first, err := container.Decode(tuned.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if first.Header.Bound != res.ErrorBound {
			t.Errorf("%s: header records %v, CompressResult.ErrorBound %v", info.Name, first.Header.Bound, res.ErrorBound)
		}
		if d, _ := pressio.Lookup(info.Name); d.Param.Integer && res.ErrorBound != math.Trunc(res.ErrorBound) {
			t.Errorf("%s: recorded %s %v is not a whole number", info.Name, info.BoundName, res.ErrorBound)
		}
		var again bytes.Buffer
		if _, err := fraz.Compress(ctx, &again, data, shape,
			fraz.Codec(info.Name), fraz.FixedBound(res.ErrorBound), fraz.Blocks(1)); err != nil {
			t.Errorf("%s: compressing at the recorded %s %v: %v", info.Name, info.BoundName, res.ErrorBound, err)
			continue
		}
		second, err := container.Decode(again.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Payload, second.Payload) {
			t.Errorf("%s: the stream was not coded at the recorded %s %v", info.Name, info.BoundName, res.ErrorBound)
		}
	}
}

// TestDecompressRefusesAShapeThePayloadCannotCarry opens a 106-byte blocked
// archive whose header claims 2×2^20×2^14 float32 values (128 GiB) over two
// 3-byte blocks with correct CRCs. The CRCs cover the payload, not the
// shape, and sizing the output from that shape ended the process with
// "fatal error: runtime: out of memory", which nothing can recover from. It
// must be ErrCorrupt, in the monolithic layout too.
func TestDecompressRefusesAShapeThePayloadCannotCarry(t *testing.T) {
	shape := grid.MustDims(2, 1<<20, 1<<14)
	blocked, err := container.New("szx:abs", 1e-3, 4, container.Float32, shape, [][]byte{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	monolithic, err := container.New("szx:abs", 1e-3, 4, container.Float32, shape, [][]byte{{1, 2, 3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	for name, cn := range map[string]container.Container{"blocked": blocked, "monolithic": monolithic} {
		archive, err := cn.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fraz.DecompressFull(context.Background(), bytes.NewReader(archive)); !errors.Is(err, fraz.ErrCorrupt) {
			t.Errorf("%s, %d bytes: err = %v, want ErrCorrupt", name, len(archive), err)
		}
	}
}
