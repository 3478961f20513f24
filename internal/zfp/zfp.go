// Package zfp implements a pure-Go block-transform lossy compressor modelled
// on ZFP (Lindstrom, IEEE TVCG 2014), the second back end the paper
// evaluates and the source of its fixed-rate baseline.
//
// The pipeline follows ZFP's structure: the field is partitioned into 4^d
// blocks; each block is converted to a block-floating-point representation
// (a shared exponent plus 30-bit signed integers), decorrelated with ZFP's
// integer lifting transform along each dimension, reordered by total
// sequency, mapped to negabinary, and finally coded bit plane by bit plane
// with ZFP's group-testing embedded coder.
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
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"fraz/internal/bitstream"
	"fraz/internal/grid"
	"fraz/internal/pool"
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

// intprecFor is intprecOf keyed by the element type.
func intprecFor[T grid.Float]() int {
	if grid.ElemSize[T]() == 4 {
		return 32
	}
	return 64
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
	// ModeFixedPrecision. Must be in [1, 32].
	Precision int
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
	intprec := intprecFor[T]()
	var minexp int
	var maxbits int
	precision := 0
	switch opts.Mode {
	case ModeAccuracy:
		if !(opts.Tolerance > 0) || math.IsInf(opts.Tolerance, 0) || math.IsNaN(opts.Tolerance) {
			return nil, fmt.Errorf("%w: tolerance must be positive and finite, got %v", ErrInvalidInput, opts.Tolerance)
		}
		// The floor here is the source of the step-like ratio behaviour.
		minexp = int(math.Floor(math.Log2(opts.Tolerance)))
		maxbits = math.MaxInt32
	case ModeFixedRate:
		if opts.Rate < 1 || opts.Rate > 64 || math.IsNaN(opts.Rate) {
			return nil, fmt.Errorf("%w: rate must be in [1,64], got %v", ErrInvalidInput, opts.Rate)
		}
		maxbits = rateBits(opts.Rate, nd)
	case ModeFixedPrecision:
		if opts.Precision < 1 || opts.Precision > intprec {
			return nil, fmt.Errorf("%w: precision must be in [1,%d], got %d", ErrInvalidInput, intprec, opts.Precision)
		}
		precision = opts.Precision
		maxbits = math.MaxInt32
	default:
		return nil, fmt.Errorf("%w: unknown mode %d", ErrInvalidInput, opts.Mode)
	}

	w := bitstream.NewWriter(len(data) / 2)
	if intprec == 64 {
		encodeBlocks[T, int64](w, data, shape, opts.Mode, minexp, precision, maxbits)
	} else {
		encodeBlocks[T, int32](w, data, shape, opts.Mode, minexp, precision, maxbits)
	}
	payload := w.Bytes()

	param := opts.Tolerance
	switch opts.Mode {
	case ModeFixedRate:
		param = opts.Rate
	case ModeFixedPrecision:
		param = float64(opts.Precision)
	}
	out := make([]byte, 0, fixedHeaderLen+4*nd+len(payload))
	out = binary.LittleEndian.AppendUint32(out, stream.Magic(grid.ElemSize[T]()))
	out = append(out, byte(opts.Mode), byte(nd))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(param))
	out = grid.AppendShape(out, shape)
	return append(out, payload...), nil
}

type header struct {
	elemSize                   int
	mode                       Mode
	minexp, precision, maxbits int
	shape                      grid.Dims
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
	switch h.mode {
	case ModeAccuracy:
		if !(param > 0) {
			return h, nil, fmt.Errorf("%w: bad tolerance %v", ErrCorrupt, param)
		}
		h.minexp = int(math.Floor(math.Log2(param)))
		h.maxbits = math.MaxInt32
	case ModeFixedRate:
		if param < 1 || param > 64 {
			return h, nil, fmt.Errorf("%w: bad rate %v", ErrCorrupt, param)
		}
		h.maxbits = rateBits(param, nd)
	case ModeFixedPrecision:
		h.precision = int(math.Round(param))
		if h.precision < 1 || h.precision > 8*h.elemSize {
			return h, nil, fmt.Errorf("%w: bad precision %v", ErrCorrupt, param)
		}
		h.maxbits = math.MaxInt32
	default:
		return h, nil, fmt.Errorf("%w: unknown mode %d", ErrCorrupt, h.mode)
	}
	// A block costs at least one bit (an all-zero block is exactly that), so
	// a shape with more blocks than the body has bits is forged.
	numBlocks := 1
	for _, d := range h.shape {
		numBlocks *= (d + 3) / 4
	}
	if numBlocks > 8*len(body) {
		return h, nil, fmt.Errorf("%w: shape %v needs %d blocks, body holds %d bits", ErrCorrupt, h.shape, numBlocks, 8*len(body))
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
		return decodeBlocks[T, int64](r, dst, h)
	}
	return decodeBlocks[T, int32](r, dst, h)
}

// CompressedSizeFixedRate predicts the compressed size in bytes of a
// fixed-rate stream for the given shape and rate, without compressing.
// It is exact, which is what makes fixed-rate mode attractive for storage
// budgeting despite its poor rate distortion.
func CompressedSizeFixedRate(shape grid.Dims, rate float64) int {
	nd := shape.NDims()
	totalBits := len(shape.Blocks(4)) * rateBits(rate, nd)
	return fixedHeaderLen + 4*nd + (totalBits+7)/8
}

// rateBits is a fixed-rate block's bit budget: rate bits per value, and at
// least the 18 bits a block header takes.
func rateBits(rate float64, nd int) int {
	return max(int(math.Round(rate*float64(blockValues(nd)))), 18)
}

// --- block encoding -------------------------------------------------------

// gatherPadded copies a (possibly partial) block into a full 4^d buffer,
// padding missing samples by replicating the nearest valid sample along each
// axis, as ZFP does, to avoid introducing artificial discontinuities.
func gatherPadded[T grid.Float](data []T, strides []int, b grid.Block, dst []float64, nd int) {
	switch nd {
	case 1:
		for x := 0; x < 4; x++ {
			sx := clampIndex(x, b.Size[0])
			dst[x] = float64(data[(b.Start[0]+sx)*strides[0]])
		}
	case 2:
		for y := 0; y < 4; y++ {
			sy := clampIndex(y, b.Size[0])
			for x := 0; x < 4; x++ {
				sx := clampIndex(x, b.Size[1])
				dst[y*4+x] = float64(data[(b.Start[0]+sy)*strides[0]+(b.Start[1]+sx)*strides[1]])
			}
		}
	default:
		for z := 0; z < 4; z++ {
			sz := clampIndex(z, b.Size[0])
			for y := 0; y < 4; y++ {
				sy := clampIndex(y, b.Size[1])
				for x := 0; x < 4; x++ {
					sx := clampIndex(x, b.Size[2])
					dst[z*16+y*4+x] = float64(data[(b.Start[0]+sz)*strides[0]+(b.Start[1]+sy)*strides[1]+(b.Start[2]+sx)*strides[2]])
				}
			}
		}
	}
}

// scatterPadded writes the valid portion of a decoded 4^d block back into
// the output array, discarding padded samples.
func scatterPadded[T grid.Float](out []T, strides []int, b grid.Block, src []float64, nd int) {
	switch nd {
	case 1:
		for x := 0; x < b.Size[0]; x++ {
			out[(b.Start[0]+x)*strides[0]] = T(src[x])
		}
	case 2:
		for y := 0; y < b.Size[0]; y++ {
			for x := 0; x < b.Size[1]; x++ {
				out[(b.Start[0]+y)*strides[0]+(b.Start[1]+x)*strides[1]] = T(src[y*4+x])
			}
		}
	default:
		for z := 0; z < b.Size[0]; z++ {
			for y := 0; y < b.Size[1]; y++ {
				for x := 0; x < b.Size[2]; x++ {
					out[(b.Start[0]+z)*strides[0]+(b.Start[1]+y)*strides[1]+(b.Start[2]+x)*strides[2]] = T(src[z*16+y*4+x])
				}
			}
		}
	}
}

func clampIndex(i, size int) int {
	if i >= size {
		return size - 1
	}
	return i
}

// blockExponent returns the smallest e such that |v| < 2^e for every value
// in the block, and whether any value is nonzero.
func blockExponent(block []float64) (int, bool) {
	var maxAbs float64
	for _, v := range block {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0, false
	}
	_, e := math.Frexp(maxAbs)
	return e, true
}

// blockValues is the number of samples in one block of an nd-dimensional
// field: 4^nd, at most 64.
func blockValues(nd int) int { return 1 << (2 * nd) }

// encodeBlocks is Compress's block loop with coefficient domain I. The three
// working slices are borrowed once and shared by every block, so the loop
// itself never allocates.
func encodeBlocks[T grid.Float, I coeff](w *bitstream.Writer, data []T, shape grid.Dims, mode Mode, minexp, precision, maxbits int) {
	nd := shape.NDims()
	block := pool.Get[float64](blockValues(nd))
	defer pool.Put(block)
	ints := pool.Get[I](len(block))
	defer pool.Put(ints)
	neg := pool.Get[uint64](len(block))
	defer pool.Put(neg)
	strides := shape.Strides()
	perm := sequencyPermutation(nd)
	for _, b := range shape.Blocks(4) {
		gatherPadded(data, strides, b, block, nd)
		startBits := w.Len()
		encodeBlock(w, block, nd, perm, mode, minexp, precision, maxbits, ints, neg)
		if mode == ModeFixedRate {
			used := w.Len() - startBits
			for ; used < maxbits; used++ {
				w.WriteBit(0)
			}
		}
	}
}

// decodeBlocks is DecompressInto's block loop, the inverse of encodeBlocks:
// it writes every element of out (the 4^d blocks tile the domain).
func decodeBlocks[T grid.Float, I coeff](r *bitstream.Reader, out []T, h header) error {
	shape, mode, minexp, precision, maxbits := h.shape, h.mode, h.minexp, h.precision, h.maxbits
	nd := shape.NDims()
	block := pool.Get[float64](blockValues(nd))
	defer pool.Put(block)
	ints := pool.Get[I](len(block))
	defer pool.Put(ints)
	neg := pool.Get[uint64](len(block))
	defer pool.Put(neg)
	strides := shape.Strides()
	perm := sequencyPermutation(nd)
	for _, b := range shape.Blocks(4) {
		startRemaining := r.BitsRemaining()
		if err := decodeBlock(r, block, nd, perm, mode, minexp, precision, maxbits, ints, neg); err != nil {
			return err
		}
		if mode == ModeFixedRate {
			used := startRemaining - r.BitsRemaining()
			for ; used < maxbits; used++ {
				if _, err := r.ReadBit(); err != nil {
					return fmt.Errorf("%w: truncated fixed-rate padding", ErrCorrupt)
				}
			}
		}
		scatterPadded(out, strides, b, block, nd)
	}
	return nil
}

// encodeBlock encodes one 4^d block with coefficient domain I (int32 for
// float32 streams, int64 for float64).
func encodeBlock[I coeff](w *bitstream.Writer, block []float64, nd int, perm []int, mode Mode, minexp, precision, maxbits int, ints []I, neg []uint64) {
	intprec := intprecOf[I]()
	emax, nonzero := blockExponent(block)

	// Determine how many bit planes to keep.
	kmin := 0
	switch mode {
	case ModeAccuracy:
		prec := emax - minexp + guardPlanes(nd)
		if prec < 0 {
			prec = 0
		}
		if prec > intprec {
			prec = intprec
		}
		kmin = intprec - prec
		if !nonzero || prec == 0 {
			// Block reconstructs to all zeros within tolerance.
			w.WriteBit(0)
			return
		}
		w.WriteBit(1)
	case ModeFixedPrecision:
		kmin = intprec - precision
		if !nonzero {
			w.WriteBit(0)
			return
		}
		w.WriteBit(1)
	default:
		if !nonzero {
			w.WriteBit(0)
			return
		}
		w.WriteBit(1)
	}
	// Biased exponent (bias 16384 keeps it positive in 16 bits).
	w.WriteBits(uint64(emax+16384), 16)

	// Block floating point: scale to signed integers with intprec-2 bits.
	// The clamp keeps |q| strictly below 2^(intprec-2) so the coefficients
	// enter the lifting transform with two guard bits of headroom.
	scale := math.Ldexp(1, intprec-2-emax)
	qmax := math.Ldexp(1, intprec-2) - 1
	for i, v := range block {
		q := v * scale
		if q > qmax {
			q = qmax
		} else if q < -qmax {
			q = -qmax
		}
		ints[i] = I(q)
	}

	// Decorrelating transform along each dimension.
	forwardTransform(ints, nd)

	// Reorder by total sequency and convert to negabinary.
	for i, p := range perm {
		neg[i] = toNegabinary(ints[p])
	}

	budget := maxbits
	if mode == ModeFixedRate {
		budget = maxbits - 17 // header bits already spent
		if budget < 0 {
			budget = 0
		}
	}
	encodeInts(w, neg, kmin, budget, intprec)
}

func decodeBlock[I coeff](r *bitstream.Reader, block []float64, nd int, perm []int, mode Mode, minexp, precision, maxbits int, ints []I, neg []uint64) error {
	intprec := intprecOf[I]()
	flag, err := r.ReadBit()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if flag == 0 {
		for i := range block {
			block[i] = 0
		}
		return nil
	}
	e, err := r.ReadBits(16)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	emax := int(e) - 16384

	kmin := 0
	switch mode {
	case ModeAccuracy:
		prec := emax - minexp + guardPlanes(nd)
		if prec < 0 {
			prec = 0
		}
		if prec > intprec {
			prec = intprec
		}
		kmin = intprec - prec
	case ModeFixedPrecision:
		kmin = intprec - precision
	}
	budget := maxbits
	if mode == ModeFixedRate {
		budget = maxbits - 17
		if budget < 0 {
			budget = 0
		}
	}
	if err := decodeInts(r, neg, kmin, budget, intprec); err != nil {
		return err
	}
	for i, p := range perm {
		ints[p] = fromNegabinary[I](neg[i])
	}
	inverseTransform(ints, nd)
	scale := math.Ldexp(1, emax-(intprec-2))
	for i := range block {
		block[i] = float64(ints[i]) * scale
	}
	return nil
}

// --- integer lifting transform ---------------------------------------------

// fwdLift applies ZFP's forward lifting transform to four values at the
// given stride.
func fwdLift[I coeff](p []I, base, stride int) {
	x := p[base]
	y := p[base+stride]
	z := p[base+2*stride]
	w := p[base+3*stride]

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

	p[base] = x
	p[base+stride] = y
	p[base+2*stride] = z
	p[base+3*stride] = w
}

// invLift applies the inverse lifting transform.
func invLift[I coeff](p []I, base, stride int) {
	x := p[base]
	y := p[base+stride]
	z := p[base+2*stride]
	w := p[base+3*stride]

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

	p[base] = x
	p[base+stride] = y
	p[base+2*stride] = z
	p[base+3*stride] = w
}

func forwardTransform[I coeff](p []I, nd int) {
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

func inverseTransform[I coeff](p []I, nd int) {
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

const (
	negabinaryMask   = 0xaaaaaaaa
	negabinaryMask64 = 0xaaaaaaaaaaaaaaaa
)

func int32ToNegabinary(v int32) uint32 {
	return (uint32(v) + negabinaryMask) ^ negabinaryMask
}

func negabinaryToInt32(u uint32) int32 {
	return int32((u ^ negabinaryMask) - negabinaryMask)
}

func int64ToNegabinary(v int64) uint64 {
	return (uint64(v) + negabinaryMask64) ^ negabinaryMask64
}

func negabinaryToInt64(u uint64) int64 {
	return int64((u ^ negabinaryMask64) - negabinaryMask64)
}

// toNegabinary converts a coefficient to its width's negabinary code,
// widened to uint64 for the shared bit-plane coder.
func toNegabinary[I coeff](v I) uint64 {
	if intprecOf[I]() == 32 {
		return uint64(int32ToNegabinary(int32(v)))
	}
	return int64ToNegabinary(int64(v))
}

// fromNegabinary is the inverse of toNegabinary.
func fromNegabinary[I coeff](u uint64) I {
	if intprecOf[I]() == 32 {
		return I(negabinaryToInt32(uint32(u)))
	}
	return I(negabinaryToInt64(u))
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

// encodeInts encodes the negabinary coefficients bit plane by bit plane with
// ZFP's group-testing scheme, spending at most budget bits and stopping at
// bit plane kmin. Planes run from intprec-1 (32 or 64 by element width)
// down. It returns the number of bits written.
func encodeInts(w *bitstream.Writer, data []uint64, kmin, budget, intprec int) int {
	size := len(data)
	bits := budget
	n := 0
	for k := intprec - 1; k >= kmin && bits > 0; k-- {
		// Extract bit plane k: bit i of x is coefficient i's bit.
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((data[i] >> uint(k)) & 1) << uint(i)
		}
		// Verbatim bits for coefficients already significant.
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		for j := 0; j < m; j++ {
			w.WriteBit(uint(x) & 1)
			x >>= 1
		}
		// Group-test the remainder.
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

// decodeInts is the inverse of encodeInts.
// decodeInts fills data (caller-provided, any prior contents) with the
// decoded negabinary coefficients.
func decodeInts(r *bitstream.Reader, data []uint64, kmin, budget, intprec int) error {
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
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		for n < size && bits > 0 {
			bits--
			b, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if b == 0 {
				break
			}
			for n < size-1 && bits > 0 {
				bits--
				bb, err := r.ReadBit()
				if err != nil {
					return fmt.Errorf("%w: %v", ErrCorrupt, err)
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
