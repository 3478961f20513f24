package fieldgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"fraz"
)

func digest(t *testing.T, d Data) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if d.Wide() {
		err = binary.Write(&buf, binary.LittleEndian, d.F64)
	} else {
		err = binary.Write(&buf, binary.LittleEndian, d.F32)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

func TestSameSeedSameBytes(t *testing.T) {
	shape := [3]int{12, 20, 28}
	for _, wide := range []bool{false, true} {
		a, b := New(7, shape, wide), New(7, shape, wide)
		if digest(t, a) != digest(t, b) {
			t.Errorf("wide=%v: the same seed gave different bytes", wide)
		}
		if digest(t, a) == digest(t, New(8, shape, wide)) {
			t.Errorf("wide=%v: seeds 7 and 8 gave the same bytes", wide)
		}
		if a.Wide() != wide || a.Bytes() != 12*20*28*map[bool]int{false: 4, true: 8}[wide] {
			t.Errorf("wide=%v: Wide()=%v Bytes()=%d", wide, a.Wide(), a.Bytes())
		}
	}
	s1, s2 := NewSeries(7, shape, false), NewSeries(7, shape, false)
	x, y := Like(s1.Base), Like(s2.Base)
	s1.Step(x, 3)
	s2.Step(y, 3)
	if digest(t, x) != digest(t, y) {
		t.Error("the same seed and step gave different series bytes")
	}
}

// The noise floor is what the doc says it is: the field differs from its
// noiseless self by at most NoiseFloor of the range, and by about that much.
func TestNoiseFloor(t *testing.T) {
	shape := [3]int{8, 16, 16}
	clean := make([]float64, 8*16*16)
	r := &rng{s: 5}
	lo, hi := synth(clean, shape, terms(r, shape, layout{plumes: true}))
	noisy := Field[float64](5, shape)
	worst := 0.0
	for i := range clean {
		worst = math.Max(worst, math.Abs(noisy[i]-clean[i]))
	}
	half := NoiseFloor * (hi - lo)
	if worst > half || worst < 0.9*half {
		t.Errorf("largest deviation %g, want just under %g", worst, half)
	}
}

// Consecutive steps of a series are different data that the same bound still
// suits: sz:abs, tuned once on step 0, reuses its bound on every later step
// and stays in the band.
func TestSeriesKeepsReusedBoundInBand(t *testing.T) {
	ctx := context.Background()
	s := NewSeries(3, [3]int{32, 64, 64}, false)
	step := Like(s.Base)
	// The target is the ratio a reference bound reaches on step 0, as in the
	// benchmark, so a bound that meets it exists.
	s.Step(step, 0)
	ref, err := fraz.Compress(ctx, &bytes.Buffer{}, step.F32, step.Shape, fraz.FixedBound(1e-2*step.Range()), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	target := ref.Ratio
	c, err := fraz.New("sz:abs", fraz.Ratio(target), fraz.Blocks(1))
	if err != nil {
		t.Fatal(err)
	}
	var prev [32]byte
	for i := 0; i < 8; i++ {
		s.Step(step, i)
		if d := digest(t, step); d == prev {
			t.Fatalf("step %d has the bytes of step %d", i, i-1)
		} else {
			prev = d
		}
		res, err := c.Compress(ctx, &bytes.Buffer{}, step.F32, step.Shape)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i > 0 && !res.UsedPrediction {
			t.Errorf("step %d retrained (the reused bound left the band)", i)
		}
		if res.Ratio < target*0.9 || res.Ratio > target*1.1 {
			t.Errorf("step %d: ratio %.2f outside %.2f ± 10%%", i, res.Ratio, target)
		}
	}
}
