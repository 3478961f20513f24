package szx

import (
	"math"
	"testing"

	"fraz/internal/grid"
)

// noisyField returns data no block of which is constant at the bounds used
// below, so decompression walks the byte-plane path where the corruption
// checks (and the historical leak) live.
func noisyField[T grid.Float](n int) []T {
	data := make([]T, n)
	for i := range data {
		data[i] = T(math.Sin(float64(i))*100 + float64(i%7))
	}
	return data
}

// countRecycled routes the decoder's failure-path hook to a counter for the
// length of the test. The count, not the pool's contents, is the evidence:
// sync.Pool drops items at random under the race detector, so a marker
// buffer parked before the call need not be the one a later Get returns.
func countRecycled(t *testing.T) *int {
	t.Helper()
	n := new(int)
	recycled = func() { *n++ }
	t.Cleanup(func() { recycled = nil })
	return n
}

// TestDecompressErrorRecyclesOutput pins the fix for the pooled-output leak:
// a decode that fails after acquiring its output buffer must return it to
// the pool, exactly once, at either width.
func TestDecompressErrorRecyclesOutput(t *testing.T) {
	t.Run("float32", func(t *testing.T) { errorRecyclesOutput[float32](t, 1e-3) })
	t.Run("float64", func(t *testing.T) { errorRecyclesOutput[float64](t, 1e-6) })
}

func errorRecyclesOutput[T grid.Float](t *testing.T, bound float64) {
	const n = 100
	shape := grid.Dims{n}
	comp, err := Compress(noisyField[T](n), shape, Options{ErrorBound: bound})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	corrupt := comp[:len(comp)-1] // chop one plane byte: fails after output acquisition

	puts := countRecycled(t)
	if _, err := Decompress[T](corrupt, shape); err == nil {
		t.Fatal("truncated stream decompressed without error")
	}
	if *puts != 1 {
		t.Errorf("failed decode returned its pooled output buffer %d times, want once; the error path leaks (0) or double-puts (>1)", *puts)
	}
}

// TestDecompressSuccessKeepsOwnership is the inverse guard: a successful
// decode hands the buffer to the caller, so it must NOT also put it back —
// a double-custody bug would alias the caller's data with the next Get.
func TestDecompressSuccessKeepsOwnership(t *testing.T) {
	const n = 100
	shape := grid.Dims{n}
	comp, err := Compress(noisyField[float32](n), shape, Options{ErrorBound: 1e-3})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}

	puts := countRecycled(t)
	if _, err := Decompress[float32](comp, shape); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if *puts != 0 {
		t.Error("successful decode put its output back in the pool while the caller still holds it")
	}
}
