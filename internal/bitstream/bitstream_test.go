package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(4)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Errorf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteReadMultiBitValues(t *testing.T) {
	w := NewWriter(64)
	vals := []struct {
		v uint64
		n uint
	}{
		{0x5, 3}, {0xFF, 8}, {0x1234, 16}, {0xDEADBEEF, 32},
		{0x0123456789ABCDEF, 64}, {0, 1}, {1, 1}, {0x7, 5},
	}
	for _, c := range vals {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range vals {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("ReadBits %d: %v", i, err)
		}
		want := c.v
		if c.n < 64 {
			want &= (1 << c.n) - 1
		}
		if got != want {
			t.Errorf("value %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestOutOfBits(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Errorf("expected ErrOutOfBits, got %v", err)
	}
	if _, err := r.ReadBits(4); err != ErrOutOfBits {
		t.Errorf("expected ErrOutOfBits, got %v", err)
	}
}

func TestWriteBitsPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("WriteBits(_, 65) should panic")
		}
	}()
	NewWriter(0).WriteBits(0, 65)
}

func TestReadBitsPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("ReadBits(65) should panic")
		}
	}()
	NewReader([]byte{0}).ReadBits(65)
}

func TestReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xABCD, 16)
	w.Reset()
	if w.Len() != 0 {
		t.Errorf("Len after Reset = %d", w.Len())
	}
	w.WriteBits(0x3, 2)
	b := w.Bytes()
	if len(b) != 1 || b[0] != 0x3 {
		t.Errorf("after reset bytes = %v", b)
	}
}

func TestBitsRemaining(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0x1F, 5)
	buf := w.Bytes()
	r := NewReader(buf)
	if r.BitsRemaining() != 8 {
		t.Errorf("BitsRemaining = %d, want 8", r.BitsRemaining())
	}
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	if r.BitsRemaining() != 5 {
		t.Errorf("BitsRemaining after 3 bits = %d, want 5", r.BitsRemaining())
	}
}

func TestNegativeCapacity(t *testing.T) {
	w := NewWriter(-5)
	w.WriteBit(1)
	if len(w.Bytes()) != 1 {
		t.Errorf("writer with negative capacity hint should still work")
	}
}

func TestPropertyBitsRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthSeed uint8) bool {
		if len(vals) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(int64(widthSeed)))
		widths := make([]uint, len(vals))
		w := NewWriter(0)
		for i, v := range vals {
			widths[i] = uint(rng.Intn(64) + 1)
			w.WriteBits(v, widths[i])
		}
		r := NewReader(w.Bytes())
		for i, v := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				return false
			}
			want := v
			if widths[i] < 64 {
				want &= (1 << widths[i]) - 1
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
