package zfp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fraz/internal/bitstream"
)

// refEncodeInts is the bit-serial embedded coder the package shipped before
// the word-at-a-time one: it extracts each bit plane with a shift-and-or per
// coefficient and writes every bit with its own call. It is the reference
// encodeInts must match bit for bit.
func refEncodeInts(w *bitstream.Writer, data []uint64, kmin, budget, intprec int) int {
	size := len(data)
	bits := budget
	n := 0
	for k := intprec - 1; k >= kmin && bits > 0; k-- {
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((data[i] >> uint(k)) & 1) << uint(i)
		}
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		for j := 0; j < m; j++ {
			w.WriteBit(uint(x) & 1)
			x >>= 1
		}
		for n < size && bits > 0 {
			bits--
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 && bits > 0 {
				bits--
				b := uint(x) & 1
				w.WriteBit(b)
				if b != 0 {
					break
				}
				x >>= 1
				n++
			}
			x >>= 1
			n++
		}
	}
	return budget - bits
}

// refDecodeInts is the bit-serial decoder that went with refEncodeInts: one
// ReadBit per group-test and run bit, failing on the first bit it cannot
// read.
func refDecodeInts(r *bitstream.Reader, data []uint64, kmin, budget, intprec int) error {
	size := len(data)
	for i := range data {
		data[i] = 0
	}
	bits := budget
	n := 0
	for k := intprec - 1; k >= kmin && bits > 0; k-- {
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		x, err := r.ReadBits(uint(m))
		if err != nil {
			return err
		}
		for n < size && bits > 0 {
			bits--
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			if b == 0 {
				break
			}
			for n < size-1 && bits > 0 {
				bits--
				bb, err := r.ReadBit()
				if err != nil {
					return err
				}
				if bb != 0 {
					break
				}
				n++
			}
			x |= uint64(1) << uint(n)
			n++
		}
		for i := 0; x != 0; i++ {
			data[i] |= (x & 1) << uint(k)
			x >>= 1
		}
	}
	return nil
}

// coderCase is one FuzzCoder input spelled out: a block of size random
// negabinary coefficients of intprec bits, each cut to a random number of
// significant bits (so some planes are sparse and some coefficients become
// significant late), coded from plane kmin up within budget bits after a
// prefix of off bits, and read back from a stream cut to keep bytes.
type coderCase struct {
	size, intprec, kmin, budget, off, keep int
	data                                   [64]uint64
}

func newCoderCase(seed int64, sizeSel, precSel, kmin uint8, budget uint16, off uint8, keep uint16) coderCase {
	c := coderCase{
		size:    []int{4, 16, 64}[int(sizeSel)%3],
		intprec: []int{32, 64}[int(precSel)%2],
		off:     int(off % 64),
		keep:    int(keep),
	}
	c.kmin = int(kmin) % (c.intprec + 1)
	c.budget = int(budget)
	if budget == math.MaxUint16 {
		c.budget = math.MaxInt32 // the accuracy and precision modes' budget
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range c.data[:c.size] {
		v := rng.Uint64() >> uint(rng.Intn(c.intprec+1))
		if c.intprec == 32 {
			v >>= 32
		}
		c.data[i] = v
	}
	return c
}

// check encodes and decodes c with both coders and fails on any difference:
// the bytes written, the bit count returned, whether the cut stream decodes,
// and when it does, the coefficients and the bits it consumed.
func (c coderCase) check(t *testing.T) {
	t.Helper()
	prefix := uint64(0x5DEECE66D) // arbitrary bits ahead of the block
	wRef, wNew := bitstream.NewWriter(0), bitstream.NewWriter(0)
	wRef.WriteBits(prefix, uint(c.off))
	wNew.WriteBits(prefix, uint(c.off))
	nRef := refEncodeInts(wRef, append([]uint64(nil), c.data[:c.size]...), c.kmin, c.budget, c.intprec)
	planes := c.data
	nNew := encodeInts(wNew, &planes, c.size, c.kmin, c.budget, c.intprec)
	ref, got := wRef.Bytes(), wNew.Bytes()
	if nRef != nNew || string(ref) != string(got) {
		t.Fatalf("%+v: encoders differ: %d bits %x, reference %d bits %x", c, nNew, got, nRef, ref)
	}

	stream := ref[:min(c.keep, len(ref))]
	rRef, rNew := bitstream.NewReader(stream), bitstream.NewReader(stream)
	if rRef.Skip(uint(c.off)) != nil || rNew.Skip(uint(c.off)) != nil {
		return // the cut fell inside the prefix
	}
	var want, dec [64]uint64
	errRef := refDecodeInts(rRef, want[:c.size], c.kmin, c.budget, c.intprec)
	errNew := decodeInts(rNew, &dec, c.size, c.kmin, c.budget, c.intprec)
	switch {
	case (errRef == nil) != (errNew == nil):
		t.Fatalf("%+v: decoder error %v, reference %v", c, errNew, errRef)
	case errNew != nil:
		if !errors.Is(errNew, ErrCorrupt) {
			t.Fatalf("%+v: decoder error %v, want ErrCorrupt", c, errNew)
		}
	case rRef.BitsRemaining() != rNew.BitsRemaining():
		t.Fatalf("%+v: decoder left %d bits, reference %d", c, rNew.BitsRemaining(), rRef.BitsRemaining())
	case dec != want:
		t.Fatalf("%+v: decoded %x, reference %x", c, dec[:c.size], want[:c.size])
	}
}

// TestCoderMatchesReference runs the FuzzCoder property over a fixed sweep:
// every size and width, budgets from none to unlimited, and cuts anywhere in
// the stream.
func TestCoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6000; trial++ {
		budget := uint16(rng.Intn(1 << 12))
		if trial%4 == 0 {
			budget = math.MaxUint16
		}
		c := newCoderCase(rng.Int63(), uint8(trial), uint8(trial/3), uint8(rng.Intn(65)), budget,
			uint8(rng.Intn(64)), uint16(rng.Intn(600)))
		if trial%5 == 0 {
			c.keep = math.MaxInt // the whole stream
		}
		c.check(t)
	}
}

// FuzzCoder checks the word-at-a-time coder against the bit-serial
// reference on blocks of 4, 16 and 64 coefficients of 32 and 64 bits, with
// a random lowest plane, budget (0xFFFF stands for unlimited), starting bit
// offset and cut. Its seeds are in testdata/fuzz/FuzzCoder.
func FuzzCoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, sizeSel, precSel, kmin uint8, budget uint16, off uint8, keep uint16) {
		newCoderCase(seed, sizeSel, precSel, kmin, budget, off, keep).check(t)
	})
}
