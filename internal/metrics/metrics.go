// Package metrics implements the compression-quality metrics used in the
// paper's evaluation: compression ratio and bit rate, RMSE, PSNR, maximum
// pointwise error, the lag-1 autocorrelation of the compression error
// (ACF(error)), and the structural similarity index (SSIM) on 2-D slices.
package metrics

import (
	"errors"
	"fmt"
	"math"

	"fraz/internal/grid"
)

// Report bundles every quality metric for one compression run. It is the Go
// analogue of the metric set libpressio attaches to a compression result.
type Report struct {
	// OriginalBytes and CompressedBytes measure the storage footprint.
	OriginalBytes   int
	CompressedBytes int
	// CompressionRatio is OriginalBytes / CompressedBytes.
	CompressionRatio float64
	// BitRate is the average number of compressed bits per data point.
	BitRate float64
	// RMSE is the root-mean-square pointwise error.
	RMSE float64
	// PSNR is 20*log10((max-min)/RMSE) in decibels.
	PSNR float64
	// MaxError is the maximum absolute pointwise error.
	MaxError float64
	// MSE is the mean squared error.
	MSE float64
	// ValueRange is max-min of the original data.
	ValueRange float64
	// ErrorACF is the lag-1 autocorrelation of the pointwise error signal.
	ErrorACF float64
	// SSIM is the mean structural similarity of the central 2-D slice. It is
	// only populated by EvaluateGrid, which knows the data's shape; the
	// shape-blind Evaluate leaves it NaN, as does any rank for which a 2-D
	// slice cannot be extracted (1-D and 4-D data).
	SSIM float64
}

// String renders the report compactly for logs and experiment tables.
func (r Report) String() string {
	return fmt.Sprintf("CR=%.2f bitrate=%.3f PSNR=%.2fdB maxErr=%.4g ACF=%.3f",
		r.CompressionRatio, r.BitRate, r.PSNR, r.MaxError, r.ErrorACF)
}

// ErrLengthMismatch is returned when original and reconstructed arrays have
// different lengths.
var ErrLengthMismatch = errors.New("metrics: original and reconstructed lengths differ")

// Evaluate computes the full metric report for a compression run.
// original and reconstructed must have the same length; compressedBytes is
// the size of the compressed representation; elementBytes is the size of one
// original element (<= 0 selects the size of T: 4 for float32, 8 for
// float64).
func Evaluate[T grid.Float](original, reconstructed []T, compressedBytes, elementBytes int) (Report, error) {
	if len(original) != len(reconstructed) {
		return Report{}, ErrLengthMismatch
	}
	if len(original) == 0 {
		return Report{}, errors.New("metrics: empty input")
	}
	if elementBytes <= 0 {
		elementBytes = grid.ElemSize[T]()
	}
	rep := Report{
		OriginalBytes:   len(original) * elementBytes,
		CompressedBytes: compressedBytes,
	}
	if compressedBytes > 0 {
		rep.CompressionRatio = float64(rep.OriginalBytes) / float64(compressedBytes)
		rep.BitRate = float64(compressedBytes*8) / float64(len(original))
	}
	s := errorSums(original, reconstructed)
	rep.MSE = s.squares / float64(len(original))
	rep.RMSE = math.Sqrt(rep.MSE)
	rep.MaxError = s.maxErr
	rep.ValueRange = float64(s.max) - float64(s.min)
	rep.PSNR = psnr(rep.ValueRange, rep.RMSE)
	rep.ErrorACF = lagCorrelation(original, reconstructed, s.sum/float64(len(original)))
	rep.SSIM = math.NaN()
	return rep, nil
}

// EvaluateGrid is Evaluate for shaped data: it additionally fills Report.SSIM
// with the mean structural similarity of the central 2-D slice (see
// SliceSSIM). Ranks without a 2-D slice leave SSIM NaN rather than failing,
// so one evaluation path serves every registered codec and shape.
func EvaluateGrid[T grid.Float](original, reconstructed []T, shape grid.Dims, compressedBytes int) (Report, error) {
	rep, err := Evaluate(original, reconstructed, compressedBytes, 0)
	if err != nil {
		return Report{}, err
	}
	if s, serr := SliceSSIM(original, reconstructed, shape); serr == nil {
		rep.SSIM = s
	}
	return rep, nil
}

// SliceSSIM computes the SSIM between two fields on their central 2-D slice:
// the whole field for 2-D data, the middle plane along the slowest axis for
// 3-D data (the slice-based visual criterion of the paper's Fig. 10 and of
// Baker et al.'s climate-analysis threshold). Other ranks are an error.
func SliceSSIM[T grid.Float](original, reconstructed []T, shape grid.Dims) (float64, error) {
	plane := 0
	if shape.NDims() == 3 {
		plane = shape[0] / 2
	}
	origSlice, sliceShape, err := grid.Slice2D(original, shape, plane)
	if err != nil {
		return 0, err
	}
	recSlice, _, err := grid.Slice2D(reconstructed, shape, plane)
	if err != nil {
		return 0, err
	}
	return SSIM(origSlice, recSlice, sliceShape)
}

// sums is what one pass over a non-empty original and its reconstruction
// gathers: the sum of the squared errors, the sum of the errors, the largest
// absolute error, and the original's minimum and maximum.
type sums[T grid.Float] struct {
	squares, sum, maxErr float64
	min, max             T
}

// errorSums makes the one pass that RMSE, PSNR, the maximum error, the value
// range and the error autocorrelation's mean share. Each sum is accumulated
// in index order, as a pass of its own would, so it has the same bits; the
// passes are fused because each is a chain of dependent additions, and the
// chains of one pass run side by side.
func errorSums[T grid.Float](original, reconstructed []T) sums[T] {
	s := sums[T]{min: original[0], max: original[0]}
	for i, v := range original {
		d := float64(v) - float64(reconstructed[i])
		s.squares += float64(d * d)
		s.sum += d
		if a := math.Abs(d); a > s.maxErr {
			s.maxErr = a
		}
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	return s
}

// RMSE returns the root-mean-square error between the two arrays, or NaN if
// the lengths differ or the input is empty.
func RMSE[T grid.Float](original, reconstructed []T) float64 {
	if len(original) != len(reconstructed) || len(original) == 0 {
		return math.NaN()
	}
	return math.Sqrt(errorSums(original, reconstructed).squares / float64(len(original)))
}

// MaxAbsError returns the maximum absolute pointwise error, or NaN on
// length mismatch.
func MaxAbsError[T grid.Float](original, reconstructed []T) float64 {
	if len(original) != len(reconstructed) || len(original) == 0 {
		return math.NaN()
	}
	return errorSums(original, reconstructed).maxErr
}

// PSNR returns the peak signal-to-noise ratio in decibels, defined as
// 20*log10((dmax-dmin)/rmse) following the paper (Section VI-B4). Identical
// arrays yield +Inf; a constant original field with nonzero error yields -Inf.
func PSNR[T grid.Float](original, reconstructed []T) float64 {
	if len(original) != len(reconstructed) || len(original) == 0 {
		return math.NaN()
	}
	s := errorSums(original, reconstructed)
	return psnr(float64(s.max)-float64(s.min), math.Sqrt(s.squares/float64(len(original))))
}

// psnr is PSNR from the original's value range and the RMSE.
func psnr(valueRange, rmse float64) float64 {
	if rmse == 0 {
		return math.Inf(1)
	}
	if valueRange == 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(valueRange/rmse)
}

// ErrorAutocorrelation returns the lag-1 autocorrelation of the pointwise
// error signal e_i = original_i - reconstructed_i. Values near 0 indicate
// white (uncorrelated) compression error; values near 1 indicate strongly
// structured error, which is generally undesirable for post-analysis.
func ErrorAutocorrelation[T grid.Float](original, reconstructed []T) float64 {
	n := len(original)
	if n != len(reconstructed) || n < 2 {
		return 0
	}
	return lagCorrelation(original, reconstructed, errorSums(original, reconstructed).sum/float64(n))
}

// lagCorrelation is ErrorAutocorrelation given the mean error, for equal
// lengths. The error signal is recomputed where it is read, not stored: the
// same subtraction gives the same bits.
func lagCorrelation[T grid.Float](original, reconstructed []T, mean float64) float64 {
	n := len(original)
	if n < 2 {
		return 0
	}
	var num, den float64
	d := float64(original[0]) - float64(reconstructed[0]) - mean
	for i := 1; i < n; i++ {
		next := float64(original[i]) - float64(reconstructed[i]) - mean
		den += float64(d * d)
		num += float64(d * next)
		d = next
	}
	den += float64(d * d)
	if den == 0 {
		return 0
	}
	return num / den
}

// CompressionRatio returns originalBytes/compressedBytes, or 0 when the
// compressed size is not positive.
func CompressionRatio(originalBytes, compressedBytes int) float64 {
	if compressedBytes <= 0 {
		return 0
	}
	return float64(originalBytes) / float64(compressedBytes)
}

// BitRate returns the average number of compressed bits per element.
func BitRate(compressedBytes, numElements int) float64 {
	if numElements <= 0 {
		return 0
	}
	return float64(compressedBytes*8) / float64(numElements)
}

// SSIM computes the mean structural similarity index between two 2-D fields
// of the given shape, using an 8x8 sliding window with stride 4 and the
// standard constants (K1=0.01, K2=0.03) relative to the original data's
// dynamic range. For 3-D data use grid.Slice2D to extract a plane first.
func SSIM[T grid.Float](original, reconstructed []T, shape grid.Dims) (float64, error) {
	if shape.NDims() != 2 {
		return 0, fmt.Errorf("metrics: SSIM requires 2-D data, got rank %d", shape.NDims())
	}
	if len(original) != shape.Len() || len(reconstructed) != shape.Len() {
		return 0, ErrLengthMismatch
	}
	h, w := shape[0], shape[1]
	window := 8
	stride := 4
	if h < window || w < window {
		window = min(h, w)
		stride = max(1, window/2)
	}
	dynRange := grid.ValueRange(original)
	if dynRange == 0 {
		dynRange = 1
	}
	c1 := (0.01 * dynRange) * (0.01 * dynRange)
	c2 := (0.03 * dynRange) * (0.03 * dynRange)

	var total float64
	var count int
	for y := 0; y+window <= h; y += stride {
		for x := 0; x+window <= w; x += stride {
			total += windowSSIM(original, reconstructed, w, x, y, window, c1, c2)
			count++
		}
	}
	if count == 0 {
		return 0, errors.New("metrics: field smaller than SSIM window")
	}
	return total / float64(count), nil
}

func windowSSIM[T grid.Float](a, b []T, width, x0, y0, win int, c1, c2 float64) float64 {
	n := float64(win * win)
	var meanA, meanB float64
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			meanA += float64(a[y*width+x])
			meanB += float64(b[y*width+x])
		}
	}
	meanA /= n
	meanB /= n
	var varA, varB, cov float64
	for y := y0; y < y0+win; y++ {
		for x := x0; x < x0+win; x++ {
			da := float64(a[y*width+x]) - meanA
			db := float64(b[y*width+x]) - meanB
			varA += float64(da * da)
			varB += float64(db * db)
			cov += float64(da * db)
		}
	}
	varA /= n - 1
	varB /= n - 1
	cov /= n - 1
	return ((float64(2*meanA*meanB) + c1) * (float64(2*cov) + c2)) /
		((float64(meanA*meanA) + float64(meanB*meanB) + c1) * (varA + varB + c2))
}
