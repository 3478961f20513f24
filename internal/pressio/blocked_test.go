package pressio

import (
	"context"
	"math"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
)

// TestSealBlockedLosslessBitExact checks the strongest round-trip property
// available: with the lossless codec, the blocked path must reproduce the
// original buffer bit for bit — and therefore agree exactly with what the
// monolithic path reconstructs.
func TestSealBlockedLosslessBitExact(t *testing.T) {
	buf := testField3D()
	c, err := New("flate:lossless")
	if err != nil {
		t.Fatal(err)
	}
	mono, err := SealBlocked(context.Background(), c, buf, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	monoOut, err := OpenBlocked(context.Background(), mono, 1)
	if err != nil {
		t.Fatal(err)
	}

	cn, err := SealBlocked(context.Background(), c, buf, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Version != container.VersionBlocked || len(cn.Blocks) != 4 {
		t.Fatalf("sealed v%d with %d blocks, want v%d with 4", cn.Header.Version, len(cn.Blocks), container.VersionBlocked)
	}
	// Through the wire format, exercising the v2 encode/decode too.
	enc, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OpenBlocked(context.Background(), dec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(buf.Shape) {
		t.Fatalf("opened shape %v, want %v", out.Shape, buf.Shape)
	}
	for i := range buf.Float32() {
		if out.Float32()[i] != buf.Float32()[i] {
			t.Fatalf("value %d: blocked round trip %v != original %v", i, out.Float32()[i], buf.Float32()[i])
		}
		if out.Float32()[i] != monoOut.Float32()[i] {
			t.Fatalf("value %d: blocked %v != monolithic %v", i, out.Float32()[i], monoOut.Float32()[i])
		}
	}
}

// TestSealBlockedErrorBoundHolds checks the lossy path: every reconstructed
// value of a blocked sz:abs round trip stays within the error bound of the
// original, exactly as the monolithic guarantee promises per block.
func TestSealBlockedErrorBoundHolds(t *testing.T) {
	buf := testField3D()
	c, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 0.01
	cn, err := SealBlocked(context.Background(), c, buf, bound, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Ratio <= 0 {
		t.Errorf("recorded ratio = %v, want > 0", cn.Header.Ratio)
	}
	out, err := OpenBlocked(context.Background(), cn, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Float32() {
		if diff := math.Abs(float64(out.Float32()[i]) - float64(buf.Float32()[i])); diff > bound {
			t.Fatalf("value %d error %v exceeds bound %v", i, diff, bound)
		}
	}
}

// TestSealBlockedFallsBackToMonolithic: one block (or an unsplittable
// shape) produces a plain version-1 container with a one-entry index.
func TestSealBlockedFallsBackToMonolithic(t *testing.T) {
	buf := testField3D()
	c, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1} {
		cn, err := SealBlocked(context.Background(), c, buf, 0.01, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		if cn.Header.Version != container.Version || len(cn.Blocks) != 1 {
			t.Errorf("blocks=%d sealed v%d with %d blocks, want monolithic v1", n, cn.Header.Version, len(cn.Blocks))
		}
	}
	// A 1-row slowest axis cannot be split either.
	flat, err := NewBuffer(make([]float32, 64), grid.MustDims(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	cn, err := SealBlocked(context.Background(), c, flat, 0.01, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Version != container.Version || len(cn.Blocks) != 1 {
		t.Errorf("1-row field sealed with %d blocks, want monolithic", len(cn.Blocks))
	}
}

// TestOpenBlockedRejectsTamperedIndex: a container whose block count does
// not match any valid plan of its shape must be rejected, not mis-scattered.
func TestOpenBlockedRejectsTamperedIndex(t *testing.T) {
	buf := testField3D()
	c, err := New("flate:lossless")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := SealBlocked(context.Background(), c, buf, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Truncating the index (keeping the payload) desynchronises the plan.
	cn.Blocks = cn.Blocks[:3]
	if _, err := OpenBlocked(context.Background(), cn, 0); err == nil {
		t.Errorf("tampered block index should fail to open")
	}
}

func TestOpenBlockedRoutesMonolithic(t *testing.T) {
	buf := testField3D()
	c, err := New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	cn, err := SealBlocked(context.Background(), c, buf, 0.01, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := OpenBlocked(context.Background(), cn, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(buf.Shape) {
		t.Errorf("opened shape %v, want %v", out.Shape, buf.Shape)
	}
}
