// Package zfp implements a pure-Go block-transform lossy compressor modelled
// on ZFP (Lindstrom, IEEE TVCG 2014), the second back end the paper
// evaluates and the source of its fixed-rate baseline.
//
// The pipeline follows ZFP's structure: the field is partitioned into 4^d
// blocks; each block is converted to a block-floating-point representation
// (a shared exponent plus 30-bit signed integers), decorrelated with ZFP's
// integer lifting transform along each dimension, reordered by total
// sequency, mapped to negabinary, and finally coded bit plane by bit plane
// with ZFP's group-testing embedded coder. The coder works a machine word at
// a time: one bit-matrix transpose turns a block's coefficients into its bit
// planes (and back), a plane's verbatim bits are one write, and a group
// test's run of zeros is one write sized by a trailing-zero count.
//
// Two modes are provided, matching the two modes the paper contrasts:
//
//   - ModeAccuracy: an absolute error tolerance determines the lowest bit
//     plane encoded (through a *floored* minimum-exponent computation, which
//     is exactly why only a step-like set of compression ratios is reachable
//     in this mode — see paper §VI-B3);
//   - ModeFixedRate: each block gets a fixed bit budget (rate × block size),
//     giving exact control of the compressed size and random access at
//     block granularity, but no error bound (the paper's Fig. 1/Fig. 9/
//     Fig. 10 baseline).
//
// Compress refuses NaN and ±Inf in every mode with ErrInvalidInput: a block
// shares one exponent, a non-finite value has none to offer, and scaling its
// finite neighbours against a wrong one would break their bound.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"
	"unsafe"

	"fraz/internal/bitstream"
	"fraz/internal/grid"
)

// magic32 and magic64 identify ZFP-Go streams of float32 and float64 data.
// The element width is part of the magic, so a stream can never be decoded
// at the wrong precision — and float32 streams keep the exact bytes earlier
// builds wrote.
const (
	magic32 = 0x5A465031 // "ZFP1"
	magic64 = 0x5A465032 // "ZFP2"
)

// stream is zfp's preamble (internal/grid): its magics and ranks 1 to 3.
var stream = grid.Stream{Magic32: magic32, Magic64: magic64, MinRank: 1, MaxRank: 3, Corrupt: ErrCorrupt}

// fixedHeaderLen is the header size before the shape extents: magic (4),
// mode (1), rank (1), mode parameter (8).
const fixedHeaderLen = 14

// coeff constrains the block-floating-point coefficient domain: int32 for
// float32 input (ZFP's single-precision configuration) and int64 for
// float64. The lifting transform relies on the modular arithmetic of the
// concrete type — int32 wraparound is part of the float32 stream format —
// which is why the width is a type parameter rather than a runtime mask.
type coeff interface {
	int32 | int64
}

// intprecOf is the integer precision used for block-floating-point
// coefficients: 32 for float32 input, 64 for float64 (matching ZFP).
func intprecOf[I coeff]() int {
	var z I
	return int(unsafe.Sizeof(z)) * 8
}

// Mode selects how the per-block bit budget is determined.
type Mode uint8

const (
	// ModeAccuracy bounds the maximum absolute error by Options.Tolerance.
	ModeAccuracy Mode = iota
	// ModeFixedRate spends exactly Options.Rate bits per value.
	ModeFixedRate
	// ModeFixedPrecision keeps Options.Precision bit planes per block
	// (relative to each block's exponent), giving a relative-error-like
	// control without an absolute guarantee.
	ModeFixedPrecision
)

// String returns the human-readable mode name used in experiment tables.
func (m Mode) String() string {
	switch m {
	case ModeAccuracy:
		return "accuracy"
	case ModeFixedRate:
		return "fixed-rate"
	case ModeFixedPrecision:
		return "fixed-precision"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Options configures compression.
type Options struct {
	// Mode selects accuracy (error-bounded), fixed-rate, or fixed-precision
	// compression.
	Mode Mode
	// Tolerance is the absolute error bound for ModeAccuracy. Must be > 0.
	Tolerance float64
	// Rate is the number of compressed bits per value for ModeFixedRate.
	// Must be >= 1 and <= 64.
	Rate float64
	// Precision is the number of bit planes kept per block for
	// ModeFixedPrecision. Must be in [1, 32] for float32 input and in
	// [1, 64] for float64.
	Precision int
}

// param is the mode's parameter as the header stores it.
func (o Options) param() float64 {
	switch o.Mode {
	case ModeFixedRate:
		return o.Rate
	case ModeFixedPrecision:
		return float64(o.Precision)
	}
	return o.Tolerance
}

// ErrInvalidInput is returned for malformed data or options.
var ErrInvalidInput = errors.New("zfp: invalid input")

// ErrCorrupt is returned by DecompressInto for unparsable streams.
var ErrCorrupt = errors.New("zfp: corrupt stream")

// guardPlanes is the number of extra bit planes retained beyond the
// tolerance-derived cutoff, per dimension pair, compensating for the dynamic
// range growth of the decorrelating transform (ZFP uses 2*(d+1)).
func guardPlanes(ndims int) int { return 2 * (ndims + 1) }

// Compress compresses the field under the given options. The returned stream
// is self-describing.
func Compress[T grid.Float](data []T, shape grid.Dims, opts Options) ([]byte, error) {
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if len(data) != shape.Len() {
		return nil, fmt.Errorf("%w: data length %d does not match shape %v", ErrInvalidInput, len(data), shape)
	}
	nd := shape.NDims()
	if nd > 3 {
		return nil, fmt.Errorf("%w: zfp supports 1-3 dimensions, got %d", ErrInvalidInput, nd)
	}
	h := header{elemSize: grid.ElemSize[T](), mode: opts.Mode, shape: shape}
	param := opts.param()
	if err := h.setParam(param); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}

	out := make([]byte, 0, fixedHeaderLen+4*nd+len(data)/2)
	out = binary.LittleEndian.AppendUint32(out, stream.Magic(h.elemSize))
	out = append(out, byte(opts.Mode), byte(nd))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(param))
	out = grid.AppendShape(out, shape)
	w := bitstream.AppendWriter(out)
	var err error
	if h.elemSize == 8 {
		err = encodeBlocks[T, int64](w, data, &h)
	} else {
		err = encodeBlocks[T, int32](w, data, &h)
	}
	if err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

type header struct {
	elemSize                   int
	mode                       Mode
	minexp, precision, maxbits int
	shape                      grid.Dims
}

// setParam checks the mode's parameter and derives the coder's settings
// from it. Compress and parseHeader both call it, so a header is refused
// exactly when Compress could not have written it; the error says why, and
// each caller wraps it in its own sentinel.
func (h *header) setParam(param float64) error {
	intprec := 8 * h.elemSize
	switch h.mode {
	case ModeAccuracy:
		if !(param > 0) || math.IsInf(param, 1) {
			return fmt.Errorf("tolerance must be positive and finite, got %v", param)
		}
		// The floor here is the source of the step-like ratio behaviour.
		h.minexp = int(math.Floor(math.Log2(param)))
		h.maxbits = math.MaxInt32
	case ModeFixedRate:
		if !(param >= 1 && param <= 64) {
			return fmt.Errorf("rate must be in [1,64], got %v", param)
		}
		h.maxbits = rateBits(param, len(h.shape))
	case ModeFixedPrecision:
		p := math.Round(param)
		if !(p >= 1 && p <= float64(intprec)) {
			return fmt.Errorf("precision must be in [1,%d], got %v", intprec, param)
		}
		h.precision = int(p)
		h.maxbits = math.MaxInt32
	default:
		return fmt.Errorf("unknown mode %d", h.mode)
	}
	return nil
}

// planes returns the lowest bit plane a block whose exponent is emax codes,
// and the bits its planes may spend.
func (h *header) planes(emax, nd, intprec int) (kmin, budget int) {
	switch h.mode {
	case ModeAccuracy:
		prec := min(max(emax-h.minexp+guardPlanes(nd), 0), intprec)
		return intprec - prec, h.maxbits
	case ModeFixedPrecision:
		return intprec - h.precision, h.maxbits
	}
	return 0, h.maxbits - 17 // fixed rate: the block's flag and exponent are spent
}

// parseHeader reads the fixed fields and the preamble's shape, returning the
// body that follows them.
func parseHeader(buf []byte) (h header, body []byte, err error) {
	if h.elemSize, err = stream.Width(buf, fixedHeaderLen); err != nil {
		return h, nil, err
	}
	h.mode = Mode(buf[4])
	nd := int(buf[5])
	param := math.Float64frombits(binary.LittleEndian.Uint64(buf[6:14]))
	if h.shape, body, err = stream.Shape(buf, fixedHeaderLen, nd); err != nil {
		return h, nil, err
	}
	if err := h.setParam(param); err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// A block costs at least one bit (an all-zero block is exactly that), so
	// a shape with more blocks than the body has bits is forged.
	if n := blockCount(h.shape); n > 8*len(body) {
		return h, nil, fmt.Errorf("%w: shape %v needs %d blocks, body holds %d bits", ErrCorrupt, h.shape, n, 8*len(body))
	}
	return h, body, nil
}

// DecompressInto reconstructs the field of a stream produced by Compress
// into dst, which holds exactly the values of shape, the stream's shape. It
// writes every value of dst or returns an error; a stream it cannot decode
// is an error wrapping ErrCorrupt.
func DecompressInto[T grid.Float](dst []T, buf []byte, shape grid.Dims) error {
	h, body, err := parseHeader(buf)
	if err != nil {
		return err
	}
	if err := grid.Expect(&stream, dst, h.elemSize, h.shape, shape); err != nil {
		return err
	}
	r := bitstream.NewReader(body)
	if h.elemSize == 8 {
		return decodeBlocks[T, int64](r, dst, &h)
	}
	return decodeBlocks[T, int32](r, dst, &h)
}

// CompressedSizeFixedRate predicts the compressed size in bytes of a
// fixed-rate stream for the given shape and rate, without compressing.
// It is exact, which is what makes fixed-rate mode attractive for storage
// budgeting despite its poor rate distortion.
func CompressedSizeFixedRate(shape grid.Dims, rate float64) int {
	nd := shape.NDims()
	totalBits := blockCount(shape) * rateBits(rate, nd)
	return fixedHeaderLen + 4*nd + (totalBits+7)/8
}

// rateBits is a fixed-rate block's bit budget: rate bits per value, and at
// least the 18 bits a block header takes.
func rateBits(rate float64, nd int) int {
	return max(int(math.Round(rate*float64(blockValues(nd)))), 18)
}

// blockValues is the number of samples in one block of an nd-dimensional
// field: 4^nd, at most 64.
func blockValues(nd int) int { return 1 << (2 * nd) }

// blockCount is the number of 4^d blocks that tile shape.
func blockCount(shape grid.Dims) int {
	n := 1
	for _, d := range shape {
		n *= (d + 3) / 4
	}
	return n
}

// --- block walk --------------------------------------------------------------

// tiling is a field's shape padded to three axes, slowest first: a missing
// axis has extent 1 and a block edge of 1, so value (z, y, x) of a 4^d block
// sits at z*16 + y*4 + x whatever d is. The fastest axis always has stride 1.
type tiling struct {
	ext, stride, edge [3]int
}

func newTiling(shape grid.Dims) tiling {
	t := tiling{ext: [3]int{1, 1, 1}, edge: [3]int{1, 1, 1}}
	off := 3 - len(shape)
	copy(t.ext[off:], shape)
	for a := off; a < 3; a++ {
		t.edge[a] = 4
	}
	t.stride = [3]int{t.ext[1] * t.ext[2], t.ext[2], 1}
	return t
}

// span is one block of a tiling: the offset of its first value and its
// extent along each axis, which is the tiling's edge except at the far
// boundary.
type span struct {
	base int
	n    [3]int
}

// at is the block whose first value is (z, y, x).
func (t *tiling) at(z, y, x int) span {
	return span{
		base: z*t.stride[0] + y*t.stride[1] + x,
		n:    [3]int{min(t.edge[0], t.ext[0]-z), min(t.edge[1], t.ext[1]-y), min(4, t.ext[2]-x)},
	}
}

// gather copies block s of data into dst as float64. A partial block's
// missing samples replicate the nearest valid sample along each axis, as ZFP
// does, to avoid introducing artificial discontinuities; a whole block is
// copied a row of four at a time.
func gather[T grid.Float](dst *[64]float64, data []T, t *tiling, s span) {
	if s.n == t.edge {
		for z := 0; z < t.edge[0]; z++ {
			for y := 0; y < t.edge[1]; y++ {
				row := data[s.base+z*t.stride[0]+y*t.stride[1]:][:4]
				d := dst[(z*4+y)*4:][:4]
				d[0], d[1], d[2], d[3] = float64(row[0]), float64(row[1]), float64(row[2]), float64(row[3])
			}
		}
		return
	}
	for z := 0; z < t.edge[0]; z++ {
		for y := 0; y < t.edge[1]; y++ {
			row := data[s.base+min(z, s.n[0]-1)*t.stride[0]+min(y, s.n[1]-1)*t.stride[1]:]
			for x := 0; x < 4; x++ {
				dst[(z*4+y)*4+x] = float64(row[min(x, s.n[2]-1)])
			}
		}
	}
}

// scatter writes the valid part of a decoded block back into out,
// discarding padded samples.
func scatter[T grid.Float](out []T, src *[64]float64, t *tiling, s span) {
	for z := 0; z < s.n[0]; z++ {
		for y := 0; y < s.n[1]; y++ {
			row := out[s.base+z*t.stride[0]+y*t.stride[1]:][:s.n[2]]
			for x := range row {
				row[x] = T(src[(z*4+y)*4+x])
			}
		}
	}
}

// blockExponent returns the smallest e such that |v| < 2^e for every value
// in the block, whether any value is nonzero, and whether every value is
// finite. One integer pass finds all three: with the sign bit cleared,
// IEEE-754 bits order non-negative values as numbers, and every NaN and
// infinity sorts above the largest finite value.
func blockExponent(block []float64) (e int, nonzero, finite bool) {
	var maxBits uint64
	for _, v := range block {
		maxBits = max(maxBits, math.Float64bits(v)&^(1<<63))
	}
	switch {
	case maxBits > math.Float64bits(math.MaxFloat64):
		return 0, false, false
	case maxBits == 0:
		return 0, false, true
	}
	_, e = math.Frexp(math.Float64frombits(maxBits))
	return e, true, true
}

// encodeBlocks is Compress's block loop with coefficient domain I. It steps
// through the block origins in stream order (row-major over blocks) and
// builds no block list; a block's working arrays live on the stack.
func encodeBlocks[T grid.Float, I coeff](w *bitstream.Writer, data []T, h *header) error {
	nd := len(h.shape)
	size := blockValues(nd)
	t := newTiling(h.shape)
	var block [64]float64
	for z := 0; z < t.ext[0]; z += t.edge[0] {
		for y := 0; y < t.ext[1]; y += t.edge[1] {
			for x := 0; x < t.ext[2]; x += 4 {
				gather(&block, data, &t, t.at(z, y, x))
				emax, nonzero, finite := blockExponent(block[:size])
				if !finite {
					origin := [3]int{z, y, x}
					return fmt.Errorf("%w: non-finite value in the block at %v: zfp has no exponent to scale NaN/Inf against",
						ErrInvalidInput, origin[3-nd:])
				}
				start := w.Len()
				encodeBlock[I](w, &block, nd, emax, nonzero, h)
				if h.mode == ModeFixedRate {
					for pad := h.maxbits - (w.Len() - start); pad > 0; pad -= 64 {
						w.WriteBits(0, uint(min(pad, 64)))
					}
				}
			}
		}
	}
	return nil
}

// decodeBlocks is DecompressInto's block loop, the inverse of encodeBlocks:
// it writes every element of out (the 4^d blocks tile the domain).
func decodeBlocks[T grid.Float, I coeff](r *bitstream.Reader, out []T, h *header) error {
	nd := len(h.shape)
	t := newTiling(h.shape)
	var block [64]float64
	for z := 0; z < t.ext[0]; z += t.edge[0] {
		for y := 0; y < t.ext[1]; y += t.edge[1] {
			for x := 0; x < t.ext[2]; x += 4 {
				start := r.BitsRemaining()
				if err := decodeBlock[I](r, &block, nd, h); err != nil {
					return err
				}
				if h.mode == ModeFixedRate {
					if r.Skip(uint(h.maxbits-(start-r.BitsRemaining()))) != nil {
						return fmt.Errorf("%w: truncated fixed-rate padding", ErrCorrupt)
					}
				}
				scatter(out, &block, &t, t.at(z, y, x))
			}
		}
	}
	return nil
}

// encodeBlock encodes one 4^d block, whose exponent is emax, with
// coefficient domain I (int32 for float32 streams, int64 for float64).
func encodeBlock[I coeff](w *bitstream.Writer, block *[64]float64, nd, emax int, nonzero bool, h *header) {
	intprec := intprecOf[I]()
	kmin, budget := h.planes(emax, nd, intprec)
	if !nonzero || kmin == intprec {
		// The block reconstructs to all zeros (within tolerance, when
		// accuracy mode keeps no plane of it).
		w.WriteBits(0, 1)
		return
	}
	// A set flag, then the biased exponent (bias 16384 keeps it positive in
	// 16 bits).
	w.WriteBits(uint64(emax+16384)<<1|1, 17)

	// Block floating point: scale to signed integers with intprec-2 bits.
	// The clamp keeps |q| strictly below 2^(intprec-2) so the coefficients
	// enter the lifting transform with two guard bits of headroom.
	size := blockValues(nd)
	scale := math.Ldexp(1, intprec-2-emax)
	qmax := math.Ldexp(1, intprec-2) - 1
	var ints [64]I
	for i, v := range block[:size] {
		q := v * scale
		if q > qmax {
			q = qmax
		} else if q < -qmax {
			q = -qmax
		}
		ints[i] = I(q)
	}

	// Decorrelating transform along each dimension.
	forwardTransform(&ints, nd)

	// Reorder by total sequency and convert to negabinary.
	var c [64]uint64
	for i, p := range sequencyPermutation(nd) {
		c[i] = toNegabinary(ints[p])
	}
	encodeInts(w, &c, size, kmin, budget, intprec)
}

func decodeBlock[I coeff](r *bitstream.Reader, block *[64]float64, nd int, h *header) error {
	intprec := intprecOf[I]()
	size := blockValues(nd)
	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if flag == 0 {
		clear(block[:size])
		return nil
	}
	e, err := r.ReadBits(16)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	emax := int(e) - 16384
	kmin, budget := h.planes(emax, nd, intprec)
	var c [64]uint64
	if err := decodeInts(r, &c, size, kmin, budget, intprec); err != nil {
		return err
	}
	var ints [64]I
	for i, p := range sequencyPermutation(nd) {
		ints[p] = fromNegabinary[I](c[i])
	}
	inverseTransform(&ints, nd)
	scale := math.Ldexp(1, emax-(intprec-2))
	for i, v := range ints[:size] {
		block[i] = float64(v) * scale
	}
	return nil
}

// --- integer lifting transform ---------------------------------------------

// fwdLift applies ZFP's forward lifting transform to four values of the
// block at the given stride. Every index is below 64; the masks only spare
// the bounds checks.
func fwdLift[I coeff](p *[64]I, base, stride int) {
	i0, i1, i2, i3 := base&63, (base+stride)&63, (base+2*stride)&63, (base+3*stride)&63
	x, y, z, w := p[i0], p[i1], p[i2], p[i3]

	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1

	p[i0], p[i1], p[i2], p[i3] = x, y, z, w
}

// invLift applies the inverse lifting transform.
func invLift[I coeff](p *[64]I, base, stride int) {
	i0, i1, i2, i3 := base&63, (base+stride)&63, (base+2*stride)&63, (base+3*stride)&63
	x, y, z, w := p[i0], p[i1], p[i2], p[i3]

	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w

	p[i0], p[i1], p[i2], p[i3] = x, y, z, w
}

func forwardTransform[I coeff](p *[64]I, nd int) {
	switch nd {
	case 1:
		fwdLift(p, 0, 1)
	case 2:
		for y := 0; y < 4; y++ {
			fwdLift(p, y*4, 1)
		}
		for x := 0; x < 4; x++ {
			fwdLift(p, x, 4)
		}
	default:
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				fwdLift(p, z*16+y*4, 1)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				fwdLift(p, z*16+x, 4)
			}
		}
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				fwdLift(p, y*4+x, 16)
			}
		}
	}
}

func inverseTransform[I coeff](p *[64]I, nd int) {
	switch nd {
	case 1:
		invLift(p, 0, 1)
	case 2:
		for x := 0; x < 4; x++ {
			invLift(p, x, 4)
		}
		for y := 0; y < 4; y++ {
			invLift(p, y*4, 1)
		}
	default:
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				invLift(p, y*4+x, 16)
			}
		}
		for z := 0; z < 4; z++ {
			for x := 0; x < 4; x++ {
				invLift(p, z*16+x, 4)
			}
		}
		for z := 0; z < 4; z++ {
			for y := 0; y < 4; y++ {
				invLift(p, z*16+y*4, 1)
			}
		}
	}
}

// --- negabinary -------------------------------------------------------------

// negabinaryMask is 0b1010… at 64 bits; its low half is the 32-bit mask.
const negabinaryMask = 0xaaaaaaaaaaaaaaaa

// toNegabinary converts a coefficient to its width's negabinary code,
// (v + mask) ^ mask in the coefficient's width, widened to uint64 for the
// shared bit-plane coder.
func toNegabinary[I coeff](v I) uint64 {
	if intprecOf[I]() == 32 {
		const m = negabinaryMask >> 32
		return uint64((uint32(v) + m) ^ m)
	}
	return (uint64(v) + negabinaryMask) ^ negabinaryMask
}

// fromNegabinary is the inverse of toNegabinary.
func fromNegabinary[I coeff](u uint64) I {
	if intprecOf[I]() == 32 {
		const m = negabinaryMask >> 32
		return I(int32((uint32(u) ^ m) - m))
	}
	return I(int64((u ^ negabinaryMask) - negabinaryMask))
}

// --- sequency permutation ----------------------------------------------------

// permutations holds the precomputed visiting orders for 1-D, 2-D, and 3-D
// blocks. They are computed once at package initialisation so that
// concurrent compressions (FRaZ searches regions in parallel goroutines)
// share them without synchronisation.
var permutations = [4][]int{
	nil,
	computeSequencyPermutation(1),
	computeSequencyPermutation(2),
	computeSequencyPermutation(3),
}

// sequencyPermutation returns the coefficient visiting order for a 4^d
// block: coefficients are ordered by total degree (sum of per-dimension
// frequencies), low frequencies first, which concentrates energy at the
// start of the embedded stream.
func sequencyPermutation(nd int) []int { return permutations[nd] }

func computeSequencyPermutation(nd int) []int {
	size := 1 << (2 * nd)
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	degree := func(i int) int {
		d := 0
		for k := 0; k < nd; k++ {
			d += (i >> (2 * k)) & 3
		}
		return d
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := degree(idx[a]), degree(idx[b])
		if da != db {
			return da < db
		}
		return idx[a] < idx[b]
	})
	return idx
}

// --- embedded bit-plane coder -----------------------------------------------

// encodeInts encodes a block's size negabinary coefficients, c[0:size] in
// sequency order with zeros after them, bit plane by bit plane with ZFP's
// group-testing scheme, spending at most budget bits and stopping at bit
// plane kmin. Planes run from intprec-1 (32 or 64 by element width) down. It
// overwrites c with the block's bit planes and returns the number of bits
// written.
//
// On plane k the n coefficients found significant on earlier planes are
// written verbatim; then each group test writes a 1 and the run of zeros up
// to the next significant coefficient, ended by its 1 — implied when that
// coefficient is the block's last — or a 0 when no coefficient is left.
func encodeInts(w *bitstream.Writer, c *[64]uint64, size, kmin, budget, intprec int) int {
	toPlanes(c, size, intprec)
	left := budget
	n := 0
	for k := intprec - 1; k >= kmin && left > 0; k-- {
		x := c[k]
		m := min(n, left)
		w.WriteBits(x, uint(m))
		left -= m
		x >>= uint(m)
		for n < size && left > 0 {
			if x == 0 {
				w.WriteBits(0, 1)
				left--
				break
			}
			z := mathbits.TrailingZeros64(x)
			code, width := uint64(1)|uint64(2)<<z, z+2
			if z == size-1-n {
				code, width = 1, z+1
			}
			width = min(width, left)
			w.WriteBits(code, uint(width))
			left -= width
			x >>= uint(z + 1)
			n += z + 1
		}
	}
	return budget - left
}

// decodeInts is the inverse of encodeInts: it fills c with the block's
// negabinary coefficients, zeros after the first size. A stream that ends
// before a step's last bit is ErrCorrupt, at the step where the bit-serial
// coder would have run out.
func decodeInts(r *bitstream.Reader, c *[64]uint64, size, kmin, budget, intprec int) error {
	*c = [64]uint64{}
	left := budget
	n := 0
	for k := intprec - 1; k >= kmin && left > 0; k-- {
		m := min(n, left)
		left -= m
		x, err := r.ReadBits(uint(m))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		for n < size && left > 0 {
			// One peek holds a group test's flag and the whole run after it
			// (at most 63 bits, ended by a 1 or cut short by the block's
			// last coefficient or the budget). Past the stream's end it
			// reads zeros, so a step that needs them fails in Skip.
			v := r.Peek(64)
			step := 1
			if v&1 != 0 {
				run := min(size-1-n, left-1)
				z := mathbits.TrailingZeros64(v>>1 | 1<<uint(run))
				step += min(z+1, run)
				n += z
				x |= 1 << uint(n)
				n++
			}
			if err := r.Skip(uint(step)); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			left -= step
			if v&1 == 0 {
				break
			}
		}
		c[k] = x
	}
	fromPlanes(c, size, intprec)
	return nil
}

// --- bit-plane transpose ------------------------------------------------------

// A block's coefficients are a bit matrix: row r is c[r] and column j is bit
// j, so plane j is column j. Transposing it makes row j plane j. The
// transpose is done in stages, each swapping one bit of the row index with
// the same bit of the column index; the stages commute, so a stage that
// would only move zeros can be left out. Coefficients of 32 bits have no
// columns 32-63, which leaves out the stage on bit 5 unless there are 64
// rows, and then folds rows 32-63 into the free high halves of rows 0-31, so
// one 32-row pass serves both halves.

// toPlanes turns the block's size coefficients of intprec bits into its bit
// planes, in place.
func toPlanes(c *[64]uint64, size, intprec int) {
	if intprec == 64 || size == 64 {
		swapHalves(c)
	}
	transpose32((*[32]uint64)(c[:32]))
	if intprec == 64 {
		transpose32((*[32]uint64)(c[32:]))
	}
}

// fromPlanes is the inverse of toPlanes.
func fromPlanes(c *[64]uint64, size, intprec int) {
	transpose32((*[32]uint64)(c[:32]))
	if intprec == 64 {
		transpose32((*[32]uint64)(c[32:]))
	}
	if intprec == 64 || size == 64 {
		swapHalves(c)
	}
}

// swapHalves is the stage on bit 5: the high 32 bits of row r swap with the
// low 32 bits of row r+32.
func swapHalves(c *[64]uint64) {
	for r := 0; r < 32; r++ {
		t := (c[r]>>32 ^ c[r+32]) & 0x00000000FFFFFFFF
		c[r] ^= t << 32
		c[r+32] ^= t
	}
}

// transpose32 runs the stages on bits 4 to 0 over 32 rows: each 32×32
// submatrix of the rows, the low and the high halves at once, is transposed.
func transpose32(a *[32]uint64) {
	m := uint64(0x0000FFFF0000FFFF)
	for j := 16; j != 0; j >>= 1 {
		for k := 0; k < 32; k = (k + j + 1) &^ j {
			lo, hi := &a[k&31], &a[(k+j)&31] // the masks only spare bounds checks
			t := (*lo>>uint(j) ^ *hi) & m
			*lo ^= t << uint(j)
			*hi ^= t
		}
		m ^= m << uint(j>>1)
	}
}
