package pressio

import (
	"encoding/binary"
	"math"
	"testing"

	"fraz/internal/grid"
)

func TestRawBytesView(t *testing.T) {
	f32, err := NewBufferOf([]float32{1.5, -2.25}, grid.MustDims(2))
	if err != nil {
		t.Fatal(err)
	}
	raw := f32.RawBytes()
	if len(raw) != 8 {
		t.Fatalf("float32 view has %d bytes, want 8", len(raw))
	}
	// The view aliases the buffer: a write through the original data must be
	// visible, proving no copy was taken.
	f32.Float32()[0] = 4.5
	var host [4]byte
	if isLittleEndian() {
		binary.LittleEndian.PutUint32(host[:], math.Float32bits(4.5))
	} else {
		binary.BigEndian.PutUint32(host[:], math.Float32bits(4.5))
	}
	for i := 0; i < 4; i++ {
		if raw[i] != host[i] {
			t.Fatalf("view byte %d = %#x, want %#x (view does not alias the data)", i, raw[i], host[i])
		}
	}

	f64, err := NewBufferOf([]float64{3.75}, grid.MustDims(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f64.RawBytes()); got != 8 {
		t.Fatalf("float64 view has %d bytes, want 8", got)
	}
	if (Buffer{}).RawBytes() != nil {
		t.Error("empty buffer should view as nil")
	}
}

func isLittleEndian() bool {
	return binary.NativeEndian.Uint16([]byte{1, 0}) == 1
}

func TestFingerprintDistinguishes(t *testing.T) {
	a, _ := NewBufferOf([]float32{1, 2, 3, 4}, grid.MustDims(4))
	b, _ := NewBufferOf([]float32{1, 2, 3, 5}, grid.MustDims(4))
	c, _ := NewBufferOf([]float32{1, 2, 3, 4}, grid.MustDims(2, 2))
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("fingerprints collide across different contents")
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprints collide across different shapes")
	}
	d64 := []float64{1, 2, 3, 4}
	d, _ := NewBufferOf(d64, grid.MustDims(4))
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("fingerprints collide across dtypes")
	}
	if Fingerprint(a) != Fingerprint(a) {
		t.Error("fingerprint not deterministic")
	}
}

// TestFingerprintAllocFree pins the zero-copy fingerprint path: hashing goes
// through the buffer's raw byte view with one maphash.Bytes call, so a
// fingerprint of any size buffer performs zero heap allocations (the old
// path staged every float through a scratch copy and allocated the hash
// state).
func TestFingerprintAllocFree(t *testing.T) {
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	buf, err := NewBufferOf(data, grid.MustDims(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	allocs := testing.AllocsPerRun(20, func() {
		sink += Fingerprint(buf)
	})
	if allocs != 0 {
		t.Errorf("Fingerprint allocates %v times per call, want 0", allocs)
	}
	_ = sink
}

func BenchmarkFingerprint(b *testing.B) {
	b.ReportAllocs()
	data := make([]float32, 1<<20)
	for i := range data {
		data[i] = float32(i)
	}
	buf, err := NewBufferOf(data, grid.MustDims(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Bytes()))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Fingerprint(buf)
	}
	_ = sink
}
