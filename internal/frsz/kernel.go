package frsz

import (
	"encoding/binary"
	"fmt"
	"math"

	"fraz/internal/bitstream"
	"fraz/internal/grid"
)

func appendHeader(out []byte, magic uint32, shape grid.Dims, o Options) []byte {
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = append(out, byte(len(shape)), byte(o.BitsPerValue))
	out = binary.LittleEndian.AppendUint32(out, uint32(o.BlockSize))
	return grid.AppendShape(out, shape)
}

// codeRange returns the two's-complement clamp range and packing mask for
// an N-bit code. bits is 1..64; the arithmetic routes through uint64 so the
// full-width case does not overflow.
func codeRange(bits int) (minQ, maxQ int64, mask uint64) {
	maxQ = int64(uint64(1)<<(bits-1) - 1)
	minQ = -maxQ - 1
	mask = ^uint64(0) >> (64 - uint(bits))
	return
}

// quantize rounds a scaled value to its N-bit code. The clamp happens in
// the float domain first: Round can land exactly on ±2^(N−1), and for the
// full-width case that float does not fit int64, so converting before
// clamping would be implementation-specific.
func quantize(scaled float64, limit float64, minQ, maxQ int64) int64 {
	r := math.Round(scaled)
	if r >= limit {
		return maxQ
	}
	if r <= -limit {
		return minQ
	}
	q := int64(r)
	if q > maxQ {
		return maxQ
	}
	if q < minQ {
		return minQ
	}
	return q
}

// signExtend interprets the low bits of u as an N-bit two's-complement
// integer.
func signExtend(u uint64, bits int) int64 {
	s := 64 - uint(bits)
	return int64(u<<s) >> s
}

// compress is the encoder at either width. Finiteness is tested
// arithmetically (nothing finite exceeds MaxFloat64, and NaN fails every
// ordered comparison), so no view of the IEEE-754 fields is needed.
func compress[T grid.Float](data []T, shape grid.Dims, o Options) ([]byte, error) {
	n := len(data)
	bs := o.BlockSize
	nBlocks := (n + bs - 1) / bs
	bits := o.BitsPerValue
	total := CompressedSize(n, len(shape), bits, bs)

	out := make([]byte, 0, total)
	out = appendHeader(out, stream.Magic(grid.ElemSize[T]()), shape, o)
	expOff := len(out)
	out = append(out, make([]byte, 2*nBlocks)...)

	w := bitstream.NewWriter(total - len(out))
	minQ, maxQ, mask := codeRange(bits)
	limit := math.Ldexp(1, bits-1)

	for bi := 0; bi < nBlocks; bi++ {
		lo := bi * bs
		block := data[lo:min(lo+bs, n)]

		maxAbs := 0.0
		for i, v := range block {
			a := math.Abs(float64(v))
			if !(a <= math.MaxFloat64) {
				return nil, fmt.Errorf("%w: non-finite value %v at element %d: frsz has no exponent to scale NaN/Inf against", ErrInvalidInput, v, lo+i)
			}
			if a > maxAbs {
				maxAbs = a
			}
		}

		if maxAbs == 0 {
			binary.LittleEndian.PutUint16(out[expOff+2*bi:], expZeroBits)
			for range block {
				w.WriteBits(0, uint(bits))
			}
			continue
		}

		_, e := math.Frexp(maxAbs)
		binary.LittleEndian.PutUint16(out[expOff+2*bi:], uint16(int16(e)))
		shift := bits - 1 - e
		scale := math.Ldexp(1, shift)
		if scale > 0 && !math.IsInf(scale, 0) {
			for _, v := range block {
				q := quantize(float64(v)*scale, limit, minQ, maxQ)
				w.WriteBits(uint64(q)&mask, uint(bits))
			}
		} else {
			// 2^shift is outside the float64 range (only reachable with a
			// denormal-only block at high N); scale per value instead.
			for _, v := range block {
				q := quantize(math.Ldexp(float64(v), shift), limit, minQ, maxQ)
				w.WriteBits(uint64(q)&mask, uint(bits))
			}
		}
	}
	return append(out, w.Bytes()...), nil
}

// decompress is the decoder at either width: codes are scaled back in
// float64 and narrowed to T last, into out.
func decompress[T grid.Float](out []T, h header, body []byte) error {
	n := len(out)
	nBlocks := (n + h.blockSize - 1) / h.blockSize
	exps := body[:2*nBlocks]
	r := bitstream.NewReader(body[2*nBlocks:])
	bits := h.bits
	minExp, maxExp, maxFinite := minExp64, maxExp64, math.MaxFloat64
	if h.elemSize == 4 {
		minExp, maxExp, maxFinite = minExp32, maxExp32, math.MaxFloat32
	}

	for bi := 0; bi < nBlocks; bi++ {
		lo := bi * h.blockSize
		dst := out[lo:min(lo+h.blockSize, n)]

		e := int(int16(binary.LittleEndian.Uint16(exps[2*bi:])))
		if e != expZero && (e < minExp || e > maxExp) {
			return fmt.Errorf("%w: block %d exponent %d outside the %d-byte float window [%d,%d]", ErrCorrupt, bi, e, h.elemSize, minExp, maxExp)
		}
		shift := e - bits + 1
		quantum := math.Ldexp(1, shift)
		// 2^shift leaves the float64 range at both ends of the float64
		// exponent window (a denormal-only block at high N underflows it, a
		// block near MaxFloat64 at N = 1 overflows it). Ldexp per value then
		// keeps the gradual-underflow rounding a multiply by zero would
		// destroy, and keeps a zero code zero where 0·Inf would be NaN.
		exact := quantum > 0 && !math.IsInf(quantum, 0)
		if e == expZero {
			quantum, exact = 0, true // codes decode to zeros whatever their content
		}

		if !exact {
			for i := range dst {
				u, err := r.ReadBits(uint(bits))
				if err != nil {
					return fmt.Errorf("%w: truncated bitstream in block %d", ErrCorrupt, bi)
				}
				dst[i] = clamp(T(math.Ldexp(float64(signExtend(u, bits)), shift)), maxFinite)
			}
			continue
		}
		for i := range dst {
			u, err := r.ReadBits(uint(bits))
			if err != nil {
				return fmt.Errorf("%w: truncated bitstream in block %d", ErrCorrupt, bi)
			}
			dst[i] = clamp(T(float64(signExtend(u, bits))*quantum), maxFinite)
		}
	}
	return nil
}

// clamp replaces an overflowed reconstruction (maxabs within one
// quantisation step of the type's overflow threshold) by the largest finite
// value of its sign instead of forging an Inf.
func clamp[T grid.Float](v T, maxFinite float64) T {
	if math.IsInf(float64(v), 0) {
		return T(math.Copysign(maxFinite, float64(v)))
	}
	return v
}
