package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDimsValid(t *testing.T) {
	d, err := NewDims(3, 4, 5)
	if err != nil {
		t.Fatalf("NewDims returned error: %v", err)
	}
	if d.NDims() != 3 {
		t.Errorf("NDims = %d, want 3", d.NDims())
	}
	if d.Len() != 60 {
		t.Errorf("Len = %d, want 60", d.Len())
	}
}

func TestNewDimsInvalid(t *testing.T) {
	cases := [][]int{
		{},
		{0},
		{-1, 5},
		{1, 2, 3, 4, 5},
	}
	for _, c := range cases {
		if _, err := NewDims(c...); err == nil {
			t.Errorf("NewDims(%v) should fail", c)
		}
	}
}

func TestMustDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustDims with invalid input should panic")
		}
	}()
	MustDims(-1)
}

func TestDimsEqualAndClone(t *testing.T) {
	a := MustDims(2, 3)
	b := a.Clone()
	if !a.Equal(b) {
		t.Errorf("clone should be equal")
	}
	b[0] = 7
	if a.Equal(b) {
		t.Errorf("modified clone should not be equal")
	}
	if a.Equal(MustDims(2, 3, 4)) {
		t.Errorf("different rank should not be equal")
	}
}

func TestStrides(t *testing.T) {
	d := MustDims(4, 3, 2)
	s := d.Strides()
	want := []int{6, 2, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("stride[%d] = %d, want %d", i, s[i], want[i])
		}
	}
}

func TestDimsString(t *testing.T) {
	if got := MustDims(100, 500, 500).String(); got != "100x500x500" {
		t.Errorf("String = %q", got)
	}
	if got := MustDims(42).String(); got != "42" {
		t.Errorf("String = %q", got)
	}
}

func TestParseDims(t *testing.T) {
	d, err := ParseDims("100x500x500")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(MustDims(100, 500, 500)) {
		t.Errorf("parsed %v", d)
	}
	if got, err := ParseDims(d.String()); err != nil || !got.Equal(d) {
		t.Errorf("ParseDims(%q) = %v, %v", d.String(), got, err)
	}
	for _, bad := range []string{"", "10xabc", "10x0", "x", "1x2x3x4x5",
		// Extents whose product wraps int, to a negative and to a plausible count.
		"2305843009213693951x2", "3037000500x3037000500"} {
		if _, err := ParseDims(bad); err == nil {
			t.Errorf("ParseDims(%q) should fail", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := MustDims(3, 3).Validate(); err != nil {
		t.Errorf("valid shape flagged: %v", err)
	}
	var empty Dims
	if err := empty.Validate(); err == nil {
		t.Errorf("empty shape should be invalid")
	}
	bad := Dims{3, 0}
	if err := bad.Validate(); err == nil {
		t.Errorf("zero extent should be invalid")
	}
	big := Dims{1, 1, 1, 1, 1}
	if err := big.Validate(); err == nil {
		t.Errorf("rank 5 should be invalid")
	}
	// An element count that wraps int, or whose float64 byte size does, is
	// invalid however plausible the wrapped product looks; the largest count
	// that still has a byte size is not.
	for _, wraps := range []Dims{{1 << 32, 1 << 32}, {2305843009213693951, 2}, {3037000500, 3037000500}, {math.MaxInt/8 + 1}} {
		if err := wraps.Validate(); err == nil {
			t.Errorf("shape %v (Len wraps to %d) should be invalid", wraps, wraps.Len())
		}
		if _, err := NewDims(wraps...); err == nil {
			t.Errorf("NewDims(%v) should fail", wraps)
		}
	}
	if err := (Dims{math.MaxInt / 8}).Validate(); err != nil {
		t.Errorf("largest addressable shape flagged: %v", err)
	}
}

func TestBlocksCoverAllElementsExactlyOnce(t *testing.T) {
	shapes := []Dims{
		MustDims(10),
		MustDims(13),
		MustDims(9, 7),
		MustDims(6, 6, 6),
		MustDims(7, 5, 9),
	}
	for _, shape := range shapes {
		for _, edge := range []int{1, 3, 4, 6, 100} {
			blocks := shape.Blocks(edge)
			seen := make([]int, shape.Len())
			strides := shape.Strides()
			for _, b := range blocks {
				idx := make([]int, shape.NDims())
				for i := 0; i < b.Len(); i++ {
					off := 0
					for k := range shape {
						off += (b.Start[k] + idx[k]) * strides[k]
					}
					seen[off]++
					k := shape.NDims() - 1
					for k >= 0 {
						idx[k]++
						if idx[k] < b.Size[k] {
							break
						}
						idx[k] = 0
						k--
					}
				}
			}
			for off, c := range seen {
				if c != 1 {
					t.Fatalf("shape %v edge %d: element %d covered %d times", shape, edge, off, c)
				}
			}
		}
	}
}

func TestBlocksNonPositiveEdge(t *testing.T) {
	blocks := MustDims(4).Blocks(0)
	if len(blocks) != 4 {
		t.Errorf("edge 0 should degrade to edge 1, got %d blocks", len(blocks))
	}
}

func TestSlice2DFrom3D(t *testing.T) {
	shape := MustDims(3, 2, 2)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(i)
	}
	plane, pshape, err := Slice2D(data, shape, 1)
	if err != nil {
		t.Fatalf("Slice2D: %v", err)
	}
	if !pshape.Equal(MustDims(2, 2)) {
		t.Errorf("plane shape = %v", pshape)
	}
	want := []float32{4, 5, 6, 7}
	for i := range want {
		if plane[i] != want[i] {
			t.Errorf("plane[%d] = %v, want %v", i, plane[i], want[i])
		}
	}
}

func TestSlice2DFrom2D(t *testing.T) {
	shape := MustDims(2, 3)
	data := []float32{1, 2, 3, 4, 5, 6}
	plane, pshape, err := Slice2D(data, shape, 0)
	if err != nil {
		t.Fatalf("Slice2D: %v", err)
	}
	if !pshape.Equal(shape) {
		t.Errorf("plane shape = %v", pshape)
	}
	plane[0] = 99
	if data[0] == 99 {
		t.Errorf("Slice2D should copy, not alias")
	}
}

func TestSlice2DErrors(t *testing.T) {
	if _, _, err := Slice2D(make([]float32, 8), MustDims(8), 0); err == nil {
		t.Errorf("1-D input should fail")
	}
	if _, _, err := Slice2D(make([]float32, 8), MustDims(2, 2, 2), 5); err == nil {
		t.Errorf("out-of-range plane should fail")
	}
}

func TestMinMaxAndValueRange(t *testing.T) {
	if min, max := MinMax[float32](nil); min != 0 || max != 0 {
		t.Errorf("empty MinMax = %v,%v", min, max)
	}
	data := []float32{3, -2, 7, 0}
	min, max := MinMax(data)
	if min != -2 || max != 7 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
	if ValueRange(data) != 9 {
		t.Errorf("ValueRange = %v", ValueRange(data))
	}
}

func TestPropertyBlocksCountMatchesCeil(t *testing.T) {
	f := func(a, b uint8, e uint8) bool {
		d := Dims{int(a%20) + 1, int(b%20) + 1}
		edge := int(e%6) + 1
		blocks := d.Blocks(edge)
		want := ((d[0] + edge - 1) / edge) * ((d[1] + edge - 1) / edge)
		return len(blocks) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
