package stats

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		got, err := Median(c.in)
		if err != nil || !near(got, c.want) {
			t.Errorf("Median(%v) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := Median(nil); !errors.Is(err, ErrNoSamples) {
		t.Errorf("Median(nil) error = %v", err)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		p       float64
		refused bool
		want    float64
	}{
		{99, 90, true, 0},
		{100, 90, false, 89.1},
		{100, 10, false, 9.9},
		{100, 99, true, 0},
		{1000, 99, false, 989.01},
		{20, 50, false, 9.5},
		{19, 50, true, 0}, // 9.5 samples on either side
	} {
		got, err := Percentile(seq(c.n), c.p)
		if c.refused {
			if !errors.Is(err, ErrTooFewSamples) {
				t.Errorf("p%g of %d: error %v, want ErrTooFewSamples", c.p, c.n, err)
			}
			continue
		}
		if err != nil || !near(got, c.want) {
			t.Errorf("p%g of %d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if _, err := Percentile(seq(100), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestMBpsChargesFailuresTheirTime(t *testing.T) {
	ok := Op{Bytes: 10e6, Latency: time.Second, OK: true}
	bad := Op{Bytes: 10e6, Latency: time.Second, OK: false}
	for _, c := range []struct {
		name    string
		ops     []Op
		clients int
		want    float64
	}{
		{"all succeed", []Op{ok, ok}, 1, 10},
		{"a failure keeps its time and loses its bytes", []Op{ok, bad}, 1, 5},
		{"two clients overlap", []Op{ok, ok}, 2, 20},
		{"all fail", []Op{bad}, 1, 0},
	} {
		got, err := MBps(c.ops, c.clients)
		if err != nil || !near(got, c.want) {
			t.Errorf("%s: %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := MBps(nil, 1); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no ops: %v", err)
	}
	if _, err := MBps([]Op{ok}, 0); err == nil {
		t.Error("zero clients accepted")
	}
}

// The expected values are statistics.quantiles(xs, n=4) from Python 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 3, 9, 2, 8, 4, 6}, 2.75, 5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 5, 9}, 3, 4, 7},
	} {
		q1, q2, q3, err := Quartiles(c.in)
		if err != nil || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, %v; want %v %v %v", c.in, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := Quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample accepted")
	}
	got, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(got, 1) {
		t.Errorf("Spread = %v, %v; want 1", got, err)
	}
	if _, err := Spread([]float64{-1, 0, 0, 1}); err == nil {
		t.Error("spread over a zero median accepted")
	}
}
