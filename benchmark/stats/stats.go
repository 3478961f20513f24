// Package stats holds the arithmetic the benchmark's metrics are made of:
// medians and guarded percentiles, throughput that charges failed operations
// their time but not their bytes, and the quartile spread the A/A check and
// the driver both use.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrNoSamples is returned by every summary of an empty sample.
var ErrNoSamples = errors.New("stats: no samples")

// ErrTooFewSamples is returned by Percentile when fewer than MinBeyond
// samples lie beyond the requested percentile.
var ErrTooFewSamples = errors.New("stats: fewer than ten samples beyond the percentile")

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: a p90 needs n >= 100, a p99 n >= 1000. Below that the value is
// one or two slow operations, not a property of the system.
const MinBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// at interpolates linearly at fractional rank q·(n−1) of a sorted sample.
func at(s []float64, q float64) float64 {
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i]*(1-frac) + s[i+1]*frac
}

// Median returns the middle of the sample (mean of the two middle values for
// an even count).
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	return at(sorted(xs), 0.5), nil
}

// Percentile returns the p-th percentile (0 < p < 100), refusing when fewer
// than MinBeyond samples lie beyond it on the far side from the median.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoSamples
	}
	if !(p > 0 && p < 100) {
		return 0, fmt.Errorf("stats: percentile %v outside (0, 100)", p)
	}
	tail := math.Min(p, 100-p) / 100
	if tail*float64(len(xs)) < MinBeyond {
		return 0, fmt.Errorf("%w: p%g of %d samples", ErrTooFewSamples, p, len(xs))
	}
	return at(sorted(xs), p/100), nil
}

// Op is one attempted operation as throughput sees it.
type Op struct {
	// Bytes is the raw (uncompressed) size the operation moved.
	Bytes int
	// Latency is how long the caller waited, success or not.
	Latency time.Duration
	// OK is false when the operation returned an error or its output failed
	// verification.
	OK bool
}

// MBps is raw megabytes (1e6 bytes) of successful operations per second of
// caller time: the bytes of failed operations are not counted, their latency
// is, and the summed latency is divided by the number of concurrent
// closed-loop clients that produced it. A failure therefore always lowers
// the figure.
func MBps(ops []Op, clients int) (float64, error) {
	if len(ops) == 0 {
		return 0, ErrNoSamples
	}
	if clients < 1 {
		return 0, fmt.Errorf("stats: %d clients", clients)
	}
	var bytes float64
	var busy time.Duration
	for _, op := range ops {
		busy += op.Latency
		if op.OK {
			bytes += float64(op.Bytes)
		}
	}
	if busy <= 0 {
		return 0, fmt.Errorf("stats: %d operations took no time", len(ops))
	}
	return bytes / 1e6 / (busy.Seconds() / float64(clients)), nil
}

// Quartiles returns the three cut points of the sample exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is what
// the driver computes. It needs at least two samples.
func Quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("stats: quartiles of %d samples", n)
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// Spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise figure a bound is compared with.
func Spread(xs []float64) (float64, error) {
	q1, q2, q3, err := Quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, errors.New("stats: spread of a sample whose median is zero")
	}
	return (q3 - q1) / math.Abs(q2), nil
}
