// Package bitstream implements bit-granular writers and readers used by the
// embedded (bit-plane) coder of the ZFP-like compressor and by the canonical
// Huffman coder of the SZ-like compressor.
//
// Bits are written least-significant-bit first within each byte, which makes
// WriteBits/ReadBits round-trip cheaply for arbitrary bit widths up to 64.
package bitstream

import (
	"errors"
	"fmt"
)

// Writer accumulates bits into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bit accumulator
	nCur uint   // number of valid bits in cur (0..7)
	bits int    // total number of bits written
}

// NewWriter returns a Writer with an initial capacity hint in bytes.
func NewWriter(capacityBytes int) *Writer {
	if capacityBytes < 0 {
		capacityBytes = 0
	}
	return &Writer{buf: make([]byte, 0, capacityBytes)}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit uint) {
	w.cur |= uint64(bit&1) << w.nCur
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur = 0
		w.nCur = 0
	}
}

// WriteBits appends the n least-significant bits of v, LSB first.
// n must be in [0, 64].
//
// The write is byte-granular, not bit-granular: the bits join the
// accumulator in one shift and leave it a byte at a time, so a fixed-rate
// packer calling WriteBits per value costs a handful of operations per
// value instead of per bit. The layout is identical to n WriteBit calls.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits width %d out of range", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= uint64(1)<<n - 1
	}
	w.bits += int(n)
	cur := w.cur | v<<w.nCur
	total := w.nCur + n
	if total <= 64 {
		for total >= 8 {
			w.buf = append(w.buf, byte(cur))
			cur >>= 8
			total -= 8
		}
		w.cur, w.nCur = cur, total
		return
	}
	// v straddles the 64-bit accumulator (n + nCur > 64): cur holds the
	// first 64 bits in stream order — flush them whole — and the top
	// total−64 bits of v restart the accumulator.
	w.buf = append(w.buf,
		byte(cur), byte(cur>>8), byte(cur>>16), byte(cur>>24),
		byte(cur>>32), byte(cur>>40), byte(cur>>48), byte(cur>>56))
	w.cur = v >> (64 - w.nCur)
	w.nCur = total - 64
}

// Len reports the total number of bits written so far.
func (w *Writer) Len() int { return w.bits }

// Bytes flushes any partial byte (padding with zero bits) and returns the
// accumulated buffer. The Writer remains usable; subsequent writes continue
// at the next byte boundary.
func (w *Writer) Bytes() []byte {
	if w.nCur > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.bits += int(8 - w.nCur)
		w.cur = 0
		w.nCur = 0
	}
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.nCur = 0
	w.bits = 0
}

// ErrOutOfBits is returned by Reader methods when the stream is exhausted.
var ErrOutOfBits = errors.New("bitstream: out of bits")

// Reader consumes bits from a byte buffer produced by Writer.
type Reader struct {
	buf []byte
	pos int  // byte position
	bit uint // bit position within current byte (0..7)
}

// NewReader returns a Reader over the given buffer. The buffer is not copied.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrOutOfBits
	}
	b := (uint(r.buf[r.pos]) >> r.bit) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return b, nil
}

// ReadBits reads n bits (LSB first) into a uint64. n must be in [0, 64].
// When fewer than n bits remain it consumes them all and returns
// ErrOutOfBits.
//
// Like WriteBits, the read is byte-granular: a leading partial byte, then
// whole bytes, then a trailing partial byte, matching the per-bit layout
// exactly.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits width %d out of range", n))
	}
	if n == 0 {
		return 0, nil
	}
	if (len(r.buf)-r.pos)*8-int(r.bit) < int(n) {
		r.pos = len(r.buf)
		r.bit = 0
		return 0, ErrOutOfBits
	}
	var v uint64
	shift := uint(0)
	if r.bit != 0 {
		take := 8 - r.bit
		if take > n {
			take = n
		}
		v = uint64(r.buf[r.pos]>>r.bit) & (uint64(1)<<take - 1)
		shift = take
		n -= take
		r.bit += take
		if r.bit == 8 {
			r.bit = 0
			r.pos++
		}
		if n == 0 {
			return v, nil
		}
	}
	for n >= 8 {
		v |= uint64(r.buf[r.pos]) << shift
		shift += 8
		r.pos++
		n -= 8
	}
	if n > 0 {
		v |= (uint64(r.buf[r.pos]) & (uint64(1)<<n - 1)) << shift
		r.bit = n
	}
	return v, nil
}

// BitsRemaining reports the number of unread bits left in the buffer.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 - int(r.bit)
}
