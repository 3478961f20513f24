// Package verify checks the program's outputs against what it was asked for
// and what it reported, from the sealed bytes and the reconstruction alone:
// nothing the tuner said about a sampled block is taken on trust.
package verify

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"fraz"
	"fraz/benchmark/fieldgen"
	"fraz/internal/blocks"
	"fraz/internal/grid"
	"fraz/internal/pressio"
)

// Request is what a compress operation was asked for: an objective ("ratio"
// or "psnr"; empty for a fixed bound), its target and the fractional
// half-width of the acceptance band.
type Request struct {
	Objective string
	Target    float64
	Tolerance float64
}

// InBand reports whether v lies in the requested band. A fixed-bound request
// has no band, so everything is in it.
func (r Request) InBand(v float64) bool {
	if r.Objective == "" {
		return true
	}
	return v >= r.Target*(1-r.Tolerance) && v <= r.Target*(1+r.Tolerance)
}

// Sealed is what the compress call reported about the archive it wrote
// (the fields of fraz.CompressResult, or of frazd's response).
type Sealed struct {
	Codec        string
	ErrorBound   float64
	Ratio        float64
	Achieved     float64
	BytesWritten int64
}

// FromResult copies the reported fields out of a CompressResult.
func FromResult(res *fraz.CompressResult) Sealed {
	return Sealed{
		Codec:        res.Codec,
		ErrorBound:   res.ErrorBound,
		Ratio:        res.Ratio,
		Achieved:     res.AchievedValue,
		BytesWritten: res.BytesWritten,
	}
}

// Report is what Reconstruction measured.
type Report struct {
	// InBand is true when the archive's recorded value (its ratio, or its
	// recorded PSNR) lies in the requested band.
	InBand bool
	// MaxError is the largest pointwise error of the reconstruction.
	MaxError float64
}

// relClose compares two recorded floats that should be the same number.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// Archive decodes a sealed archive and checks it with Reconstruction. A
// stream that does not decode — a flipped payload byte fails its CRC — is an
// error.
func Archive(ctx context.Context, orig fieldgen.Data, archive []byte, sealed Sealed, req Request) (Report, error) {
	res, err := fraz.DecompressFull(ctx, bytes.NewReader(archive))
	if err != nil {
		return Report{}, fmt.Errorf("verify: decode: %w", err)
	}
	return Reconstruction(orig, len(archive), res, sealed, req)
}

// Reconstruction checks a decoded archive of archiveLen bytes: shape and
// element type are the original's; the header repeats what the compress
// call reported; the recorded ratio is the raw size over the payload bytes
// actually present; an error-bounded codec kept every value within the
// sealed bound; a PSNR archive's recorded value is what re-measuring gives;
// an frsz archive has its closed-form size. The returned Report says whether
// the recorded value is in the requested band — a miss there is a broken
// promise, counted by the caller, not a verification error.
func Reconstruction(orig fieldgen.Data, archiveLen int, res *fraz.DecompressResult, sealed Sealed, req Request) (Report, error) {
	if int64(archiveLen) != sealed.BytesWritten {
		return Report{}, fmt.Errorf("verify: %d archive bytes, call reported %d", archiveLen, sealed.BytesWritten)
	}
	maxErr, err := Decoded(orig, res, 1)
	if err != nil {
		return Report{}, err
	}
	if res.Codec != sealed.Codec {
		return Report{}, fmt.Errorf("verify: header codec %q, call reported %q", res.Codec, sealed.Codec)
	}
	if !relClose(res.ErrorBound, sealed.ErrorBound) {
		return Report{}, fmt.Errorf("verify: header bound %v, call reported %v", res.ErrorBound, sealed.ErrorBound)
	}
	if !relClose(res.Ratio, sealed.Ratio) {
		return Report{}, fmt.Errorf("verify: header ratio %v, call reported %v", res.Ratio, sealed.Ratio)
	}
	if fromBytes := float64(orig.Bytes()) / float64(res.CompressedBytes); !relClose(res.Ratio, fromBytes) {
		return Report{}, fmt.Errorf("verify: header ratio %v, but %d raw bytes over %d payload bytes is %v",
			res.Ratio, orig.Bytes(), res.CompressedBytes, fromBytes)
	}

	recorded := res.Ratio
	if req.Objective == "psnr" {
		o := res.Objective
		if o == nil || o.Name != "psnr" {
			return Report{}, fmt.Errorf("verify: PSNR request, but the archive records objective %+v", o)
		}
		if !relClose(o.Achieved, sealed.Achieved) {
			return Report{}, fmt.Errorf("verify: header PSNR %v, call reported %v", o.Achieved, sealed.Achieved)
		}
		measured, err := measurePSNR(orig, res)
		if err != nil {
			return Report{}, err
		}
		if math.Abs(measured-o.Achieved) > 1e-6*math.Abs(measured) {
			return Report{}, fmt.Errorf("verify: archive records PSNR %v, reconstruction measures %v", o.Achieved, measured)
		}
		recorded = o.Achieved
	}
	if ci, _ := fraz.LookupCodec(res.Codec); ci.FixedRate {
		if want := fixedRateSize(res); res.CompressedBytes != want {
			return Report{}, fmt.Errorf("verify: %s payload is %d bytes, closed form gives %d", res.Codec, res.CompressedBytes, want)
		}
	}
	return Report{InBand: req.InBand(recorded), MaxError: maxErr}, nil
}

// Decoded checks one reconstruction against the original: same shape and
// element type, and — when the archive's codec bounds the pointwise error —
// no value further from the original than the bound the header records.
// stride > 1 compares every stride-th value only, for repeat decodes of an
// archive already checked in full.
func Decoded(orig fieldgen.Data, res *fraz.DecompressResult, stride int) (maxErr float64, err error) {
	if !grid.Dims(res.Shape).Equal(orig.Shape) {
		return 0, fmt.Errorf("verify: decoded shape %v, original %v", res.Shape, orig.Shape)
	}
	if wide := res.Data64 != nil; wide != orig.Wide() || len(res.Data) != len(orig.F32) || len(res.Data64) != len(orig.F64) {
		return 0, fmt.Errorf("verify: decoded %s with %d values, original has %d float32 and %d float64 values",
			res.DType, len(res.Data)+len(res.Data64), len(orig.F32), len(orig.F64))
	}
	if orig.Wide() {
		maxErr = maxAbsDiff(orig.F64, res.Data64, stride)
	} else {
		maxErr = maxAbsDiff(orig.F32, res.Data, stride)
	}
	ci, ok := fraz.LookupCodec(res.Codec)
	if !ok {
		return maxErr, fmt.Errorf("verify: archive names unknown codec %q", res.Codec)
	}
	if ci.ErrorBounded && !(maxErr <= res.ErrorBound) {
		return maxErr, fmt.Errorf("verify: %s reconstruction is off by %v, sealed bound is %v", res.Codec, maxErr, res.ErrorBound)
	}
	return maxErr, nil
}

// maxAbsDiff returns the largest |a−b|, NaN if any difference is NaN.
func maxAbsDiff[T fieldgen.Float](a, b []T, stride int) float64 {
	worst := 0.0
	for i := 0; i < len(a); i += stride {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if math.IsNaN(d) {
			return d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func measurePSNR(orig fieldgen.Data, res *fraz.DecompressResult) (float64, error) {
	obj := fraz.FixedPSNR(res.Objective.Target)
	if orig.Wide() {
		return obj.Measure64(orig.F64, res.Data64, res.Shape, res.CompressedBytes)
	}
	return obj.Measure(orig.F32, res.Data, res.Shape, res.CompressedBytes)
}

// fixedRateSize is the payload size a fixed-rate codec must have produced:
// its size formula summed over the archive's blocks.
func fixedRateSize(res *fraz.DecompressResult) int {
	comp, err := pressio.New(res.Codec)
	if err != nil {
		return -1
	}
	rc, ok := comp.(pressio.RateCompressor)
	if !ok {
		return -1
	}
	plan, err := blocks.Plan(grid.Dims(res.Shape), res.Blocks)
	if err != nil {
		return -1
	}
	total := 0
	for _, b := range plan {
		total += rc.CompressedSize(b.Shape, int(res.ErrorBound))
	}
	return total
}
