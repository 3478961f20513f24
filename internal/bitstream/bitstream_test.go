package bitstream

import (
	"errors"
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

// TestPeekSkipAtBufferEnds checks Peek and Skip on both sides of the point
// where Peek stops reading nine bytes at once and reads the tail byte by
// byte, and at the end itself: bits past the end peek as zero, and a Skip
// past it consumes what is left and reports ErrOutOfBits.
func TestPeekSkipAtBufferEnds(t *testing.T) {
	buf := []byte{0xA5, 0x3C, 0xFF, 0x01, 0x80, 0x7E, 0x42, 0x99, 0x10, 0xC3} // 80 bits
	total := 8 * len(buf)
	want := func(pos int, n uint) uint64 {
		var v uint64
		for j := 0; j < int(n) && pos+j < total; j++ {
			v |= uint64(buf[(pos+j)/8]>>((pos+j)%8)&1) << j
		}
		return v
	}
	for _, c := range []struct {
		pos int
		n   uint
	}{
		{0, 64}, {0, 0}, {1, 64}, {7, 64}, {8, 64}, {8, 1}, {15, 64}, {15, 33},
		{16, 64}, {17, 64}, {17, 5}, {40, 40}, {41, 40}, {63, 17}, {72, 8},
		{73, 7}, {73, 8}, {79, 1}, {79, 64}, {80, 0}, {80, 1}, {80, 64},
	} {
		r := NewReader(buf)
		if err := r.Skip(uint(c.pos)); err != nil {
			t.Fatalf("Skip(%d): %v", c.pos, err)
		}
		if got := r.Peek(c.n); got != want(c.pos, c.n) {
			t.Errorf("at %d: Peek(%d) = %#x, want %#x", c.pos, c.n, got, want(c.pos, c.n))
		}
		if got := r.BitsRemaining(); got != total-c.pos {
			t.Errorf("at %d: Peek consumed bits: %d remain", c.pos, got)
		}
		err := r.Skip(c.n)
		switch fits := c.pos+int(c.n) <= total; {
		case fits && err != nil:
			t.Errorf("at %d: Skip(%d): %v", c.pos, c.n, err)
		case !fits && !errors.Is(err, ErrOutOfBits):
			t.Errorf("at %d: Skip(%d) past the end: got %v, want ErrOutOfBits", c.pos, c.n, err)
		case fits && r.BitsRemaining() != total-c.pos-int(c.n), !fits && r.BitsRemaining() != 0:
			t.Errorf("at %d: Skip(%d) leaves %d bits", c.pos, c.n, r.BitsRemaining())
		}
	}
	empty := NewReader(nil)
	if empty.Peek(64) != 0 || empty.Skip(0) != nil || !errors.Is(empty.Skip(1), ErrOutOfBits) {
		t.Errorf("an empty reader peeks zeros, skips nothing, and is out of bits at once")
	}
}

// TestWriteBitsLayout writes every width after every accumulator fill and
// compares the bytes with the same bits placed one at a time, LSB first, and
// checks that AppendWriter's bits follow the bytes it was given.
func TestWriteBitsLayout(t *testing.T) {
	const a, b = uint64(0x9E3779B97F4A7C15), uint64(0xD1B54A32D192ED03)
	for off := uint(0); off < 64; off++ {
		for n := uint(0); n <= 64; n++ {
			w := NewWriter(0)
			want := make([]byte, (off+n+7+7)/8)
			pos := uint(0)
			for _, f := range []struct {
				v uint64
				n uint
			}{{a, off}, {b, n}, {a, 7}} {
				w.WriteBits(f.v, f.n)
				for j := uint(0); j < f.n; j, pos = j+1, pos+1 {
					want[pos/8] |= byte(f.v>>j&1) << (pos % 8)
				}
			}
			if w.Len() != int(pos) {
				t.Fatalf("off %d, n %d: Len %d, want %d", off, n, w.Len(), pos)
			}
			if got := w.Bytes(); string(got) != string(want) {
				t.Fatalf("off %d, n %d: %x, want %x", off, n, got, want)
			}
		}
	}
	w := AppendWriter([]byte("hdr"))
	w.WriteBits(0x1FF, 9)
	if got := w.Bytes(); string(got) != "hdr\xff\x01" || w.Len() != 40 {
		t.Errorf("AppendWriter: %q, Len %d", got, w.Len())
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
