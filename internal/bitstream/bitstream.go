// Package bitstream implements bit-granular writers and readers used by the
// embedded (bit-plane) coder of the ZFP-like compressor and by the canonical
// Huffman coder of the SZ-like compressor.
//
// Bits are written least-significant-bit first within each byte, which makes
// WriteBits/ReadBits round-trip cheaply for arbitrary bit widths up to 64.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer accumulates bits into a byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, the oldest in bit 0
	nCur uint   // number of pending bits in cur (0..63)
}

// NewWriter returns a Writer with an initial capacity hint in bytes.
func NewWriter(capacityBytes int) *Writer {
	return AppendWriter(make([]byte, 0, max(capacityBytes, 0)))
}

// AppendWriter returns a Writer whose bits follow the bytes already in buf:
// Bytes returns buf extended by them, so a header and the bit stream after
// it share one allocation. The caller must not use buf again except through
// Bytes.
func AppendWriter(buf []byte) *Writer {
	return &Writer{buf: buf}
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit uint) {
	w.WriteBits(uint64(bit), 1)
}

// WriteBits appends the n least-significant bits of v, LSB first.
// n must be in [0, 64].
//
// The write is word-granular: the bits join a 64-bit accumulator in one
// shift, and the accumulator reaches the buffer eight bytes at a time, so a
// coder that emits a run of bits with one call pays for the call, not for
// each bit. The layout is identical to n single-bit writes.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits width %d out of range", n))
	}
	v &= ^uint64(0) >> (64 - n) // n = 0 keeps nothing, n = 64 everything
	w.cur |= v << w.nCur
	total := w.nCur + n
	if total < 64 {
		w.nCur = total
		return
	}
	// The accumulator is full: flush it whole, and the bits of v that did
	// not fit (v >> 64 is 0 in Go when nCur is 0) restart it.
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.cur)
	w.cur = v >> (64 - w.nCur)
	w.nCur = total - 64
}

// Len reports the number of bits in the buffer so far: those of the bytes
// it started with, every bit written, and the padding of earlier Bytes calls.
func (w *Writer) Len() int { return 8*len(w.buf) + int(w.nCur) }

// Bytes flushes the pending bits (padding the last byte with zero bits) and
// returns the accumulated buffer. The Writer remains usable; subsequent
// writes continue at the next byte boundary.
func (w *Writer) Bytes() []byte {
	for ; w.nCur > 0; w.nCur -= min(w.nCur, 8) {
		w.buf = append(w.buf, byte(w.cur))
		w.cur >>= 8
	}
	return w.buf
}

// Reset clears the writer for reuse.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.nCur = 0
}

// ErrOutOfBits is returned by Reader methods when the stream is exhausted.
var ErrOutOfBits = errors.New("bitstream: out of bits")

// Reader consumes bits from a byte buffer produced by Writer.
type Reader struct {
	buf []byte
	pos int // bits consumed
}

// NewReader returns a Reader over the given buffer. The buffer is not copied.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Peek returns the next n bits (LSB first) without consuming them. n must be
// in [0, 64]. Bits past the end of the buffer read as zero, so a decoder can
// look at a whole word, decide how many bits its step takes, and hand that
// count to Skip, which is where running out is reported.
func (r *Reader) Peek(n uint) uint64 {
	i, s := r.pos>>3, uint(r.pos&7)
	if i+8 >= len(r.buf) || n > 64 {
		return r.peekTail(n)
	}
	// Nine bytes cover any 64-bit window that starts inside byte i; a shift
	// by 64 is 0 in Go.
	v := binary.LittleEndian.Uint64(r.buf[i:])>>s | uint64(r.buf[i+8])<<(64-s)
	return v & (^uint64(0) >> (64 - n))
}

// peekTail is Peek within the last nine bytes of the buffer, kept apart so
// that Peek inlines.
func (r *Reader) peekTail(n uint) uint64 {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: Peek width %d out of range", n))
	}
	i, s := r.pos>>3, uint(r.pos&7)
	var lo uint64
	for j := i; j < len(r.buf); j++ {
		lo |= uint64(r.buf[j]) << (8 * (j - i))
	}
	return lo >> s & (^uint64(0) >> (64 - n))
}

// Skip consumes n bits. When fewer than n bits remain it consumes them all
// and returns ErrOutOfBits.
func (r *Reader) Skip(n uint) error {
	if uint64(n) > uint64(r.BitsRemaining()) {
		r.pos = 8 * len(r.buf)
		return ErrOutOfBits
	}
	r.pos += int(n)
	return nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	b, err := r.ReadBits(1)
	return uint(b), err
}

// ReadBits reads n bits (LSB first) into a uint64. n must be in [0, 64].
// When fewer than n bits remain it consumes them all and returns
// ErrOutOfBits.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	v := r.Peek(n)
	if err := r.Skip(n); err != nil {
		return 0, err
	}
	return v, nil
}

// BitsRemaining reports the number of unread bits left in the buffer.
func (r *Reader) BitsRemaining() int {
	return 8*len(r.buf) - r.pos
}
