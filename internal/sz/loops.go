package sz

import (
	"math"
	"slices"

	"fraz/internal/grid"
)

// This file holds the hot loops: the encoder's and the decoder's block
// walks, the literal gather, and the predictor selection.
//
// One walk serves ranks 1 to 3: a block is padded to three axes, a lower
// rank's missing slow axes having extent 1 at coordinate 0. There every
// Lorenzo guard on them is false, which leaves exactly the 1-D or 2-D
// predictor, and the regression prediction omits their terms.
//
// Visit order. A regression block is walked row-major: no prediction reads
// a reconstruction. A Lorenzo prediction reads the reconstruction of the
// point's x−1, y−1 and z−1 neighbours, so a row-major walk is one serial
// chain of subtract, divide, round, multiply, add, store and load per
// point. The walk visits a Lorenzo block by hyperplane l0 + l1 + x = s
// instead, each hyperplane as one run per plane along the anti-diagonal
// l1 + x = s − l0. Every neighbour of a point on hyperplane s lies on s−1,
// s−2 or s−3 or in an earlier block, so the points of a hyperplane are
// independent and their chains overlap. A run's first point may lie on the
// domain's y = 0 row and its last on the x = 0 column; those lack a
// neighbour, and lorenzoAt predicts them from the ones they have.
//
// Bit-compatibility contract. Streams and reconstructions are those of the
// row-major point-at-a-time walk through the linear-scaling Quantizer, which
// walk_test.go keeps as the reference (TestWalkMatchesReference, FuzzWalk):
//
//   - Every point evaluates that walk's floating-point expressions, with
//     the same association order, so the order of visits changes no value.
//     Only dropping "+ 0.0" terms for absent neighbours can flip a
//     prediction between −0 and +0, which nothing downstream sees, since
//     a zero code is +0: v−pred, round(diff/2e) and pred + 2e·(+0) are the
//     same for both zero signs. The quantiser rounds the quotient through
//     an integer (see put), which gives math.Round's code and a zero code
//     of +0 whatever the quotient's sign, as the reference's
//     float64(int32(c)) is.
//   - A code is written at its point's index in the stream: block by block,
//     row-major within a block. The literals are gathered after the walk
//     in that order, and the decoder places them all before it walks; its
//     walk skips their slots.
//   - Every product that is added to something is rounded explicitly,
//     x + float64(y*z). On a target with a fused multiply-add (arm64,
//     ppc64le, s390x, riscv64; not amd64) Go would otherwise skip that
//     rounding, write other bytes, and let the decoder drift from the
//     reconstruction the encoder checked. CI's arm64 assembly check holds
//     every kernel to this.
//   - The selection's Lorenzo residual reads an absent neighbour as +0.
//     Adding a zero changes a value at most in the sign of a zero result and
//     keeps every Inf and NaN, so each |v − pred|, every sum and every
//     choice is that of the walk that left the terms out.

// block is a grid.Block padded to three axes, slowest first, with the
// field's strides (0 on a padded axis, which is never read along).
type block struct {
	nd                  int // the field's rank
	start, size, stride [3]int
}

func padBlock(b grid.Block, strides []int) block {
	p := block{nd: len(b.Size), size: [3]int{1, 1, 1}}
	o := 3 - p.nd
	copy(p.start[o:], b.Start)
	copy(p.size[o:], b.Size)
	copy(p.stride[o:], strides)
	return p
}

// row returns the flat offset and the global slow coordinates (z, y) of the
// block-local row (l0, l1).
func (p *block) row(l0, l1 int) (base, z, y int) {
	z, y = p.start[0]+l0, p.start[1]+l1
	return z*p.stride[0] + y*p.stride[1] + p.start[2], z, y
}

// offset returns the flat offset of the block's i-th point in row-major
// order.
func (p *block) offset(i int) int {
	x, i := i%p.size[2], i/p.size[2]
	base, _, _ := p.row(i/p.size[1], i%p.size[1])
	return base + x
}

// regressRow returns the row-constant part of the regression prediction at
// block-local row (l0, l1): c0 plus each slower coordinate's term, summed in
// the prediction's order c0 + c1·i0 + c2·i1 + c3·i2 over the field's axes.
// A point at i along the row adds c[nd]·i.
func (p *block) regressRow(c *[4]float64, l0, l1 int) float64 {
	pred := c[0]
	if p.nd == 3 {
		pred += float64(c[1] * float64(l0))
	}
	if p.nd >= 2 {
		pred += float64(c[p.nd-1] * float64(l1))
	}
	return pred
}

// encoder carries what the encoder's walks read and write: the bound, 2e
// and the range of quotients whose code is in range, hoisted from the
// quantiser, the original data, the reconstruction the Lorenzo predictor
// reads, and the codes, one per point at its index.
type encoder[T grid.Float] struct {
	bound, twoE, qlo, qhi float64
	data, recon           []T
	codes                 []int32
}

// decoder is encoder's counterpart: the literals are in place before a
// block is walked, and the walk reconstructs every other point.
type decoder[T grid.Float] struct {
	twoE  float64
	codes []int32
	recon []T
}

// The walks are written once for the encoder and once for the decoder,
// with the quantiser or dequantiser written out in their loops: a walk
// generic over the two would call it through the instantiation's
// dictionary at every point, and Go inlines neither the quantiser nor
// lorenzoAt. The domain-edge points at the ends of a Lorenzo walk's runs
// call both (put).

// put quantises the point at flat offset off, whose code is codes[k],
// against pred: Quantizer.Quantize followed by the check that the bound
// holds after the cast to the element type as well (the decompressor
// stores reconstructions at T's precision; a no-op for float64). A point
// that fails either is a literal: its code is unpredictable and its
// reconstruction the value itself. The walks' loops write put out.
//
// Quantize's code is math.Round(q) for the quotient q = (v − pred)/2e, in
// range when it lies in [−half, half), that is when qlo < q < qhi with
// qlo = −half − ½ and qhi = half − ½ (NaN fails both). Below 2^30 + ½,
// int64(q) truncates q exactly, q minus that is q's exact fraction, and
// a fraction of at least ½ in magnitude rounds away from zero: math.Round,
// with no branch on q's exponent for the predictor to miss. A zero code
// comes out +0 whatever q's sign. The two bound checks compare d and −d
// with the bound, which is |d| ≤ bound without math.Abs's trip through an
// integer register.
func (e encoder[T]) put(off, k int, pred float64) {
	v := e.data[off]
	code, rec := unpredictable, v
	fv := float64(v)
	if q := (fv - pred) / e.twoE; q > e.qlo && q < e.qhi {
		c := int64(q)
		f := q - float64(c)
		if f >= 0.5 {
			c++
		}
		if f <= -0.5 {
			c--
		}
		rv := pred + float64(e.twoE*float64(c))
		rvT := T(rv)
		if d, dT := rv-fv, float64(rvT)-fv; d <= e.bound && -d <= e.bound && dT <= e.bound && -dT <= e.bound {
			code, rec = int32(c), rvT
		}
	}
	e.codes[k], e.recon[off] = code, rec
}

// put reconstructs the point at flat offset off, whose code is codes[k],
// from pred: Quantizer.Dequantize. A literal is left as placed.
func (d decoder[T]) put(off, k int, pred float64) {
	if code := d.codes[k]; code != unpredictable {
		d.recon[off] = T(pred + float64(d.twoE*float64(code)))
	}
}

// lorenzoBlock encodes one Lorenzo block whose first code is k, by
// hyperplane and then by plane, each plane's part of a hyperplane being a
// run from row lo to row hi, one row down and one column left per point.
func (e encoder[T]) lorenzoBlock(b *block, k int) {
	bound, twoE, qlo, qhi := e.bound, e.twoE, e.qlo, e.qhi
	data, r, codes := e.data, e.recon, e.codes
	sz, sy, z0, y0, x0 := b.stride[0], b.stride[1], b.start[0], b.start[1], b.start[2]
	n0, ny, nx := b.size[0], b.size[1], b.size[2]
	base, _, _ := b.row(0, 0)
	dOff, dK := sy-1, nx-1
	for s := 0; s < n0+ny+nx-2; s++ {
		for l0 := max(0, s-ny-nx+2); l0 <= min(s, n0-1); l0++ {
			t, hz := s-l0, z0+l0 > 0
			lo, hi := max(0, t-nx+1), min(t, ny-1)
			off, kk, n := base+l0*sz+lo*sy+t-lo, k+(l0*ny+lo)*nx+t-lo, hi-lo+1
			if y0+lo == 0 { // the first point is on the domain's y = 0 row
				e.put(off, kk, lorenzoAt(r, off, sz, sy, hz, false, x0+t-lo > 0))
				off, kk, n = off+dOff, kk+dK, n-1
			}
			if n > 0 && x0+t-hi == 0 { // the last is on the x = 0 column
				n--
				e.put(off+n*dOff, kk+n*dK, lorenzoAt(r, off+n*dOff, sz, sy, hz, true, false))
			}
			for ; n > 0; n, off, kk = n-1, off+dOff, kk+dK {
				var pred float64
				if hz {
					fx := float64(r[off-1])
					fy := float64(r[off-sy])
					fz := float64(r[off-sz])
					fxy := float64(r[off-1-sy])
					fxz := float64(r[off-1-sz])
					fyz := float64(r[off-sy-sz])
					fxyz := float64(r[off-1-sy-sz])
					pred = fx + fy + fz - fxy - fxz - fyz + fxyz
				} else {
					pred = float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
				}
				v := data[off]
				code, rec := unpredictable, v
				fv := float64(v)
				if q := (fv - pred) / twoE; q > qlo && q < qhi {
					c := int64(q)
					f := q - float64(c)
					if f >= 0.5 {
						c++
					}
					if f <= -0.5 {
						c--
					}
					rv := pred + float64(twoE*float64(c))
					rvT := T(rv)
					if d, dT := rv-fv, float64(rvT)-fv; d <= bound && -d <= bound && dT <= bound && -dT <= bound {
						code, rec = int32(c), rvT
					}
				}
				codes[kk], r[off] = code, rec
			}
		}
	}
}

// regressBlock encodes one regression block whose first code is k, in
// row-major order.
func (e encoder[T]) regressBlock(b *block, coeffs *[4]float64, k int) {
	bound, twoE, qlo, qhi := e.bound, e.twoE, e.qlo, e.qhi
	data, r, codes := e.data, e.recon, e.codes
	ci := coeffs[b.nd]
	for l0 := 0; l0 < b.size[0]; l0++ {
		for l1 := 0; l1 < b.size[1]; l1++ {
			base, _, _ := b.row(l0, l1)
			pred0 := b.regressRow(coeffs, l0, l1)
			for i, v := range data[base : base+b.size[2]] {
				pred := pred0 + float64(ci*float64(i))
				code, rec := unpredictable, v
				fv := float64(v)
				if q := (fv - pred) / twoE; q > qlo && q < qhi {
					c := int64(q)
					f := q - float64(c)
					if f >= 0.5 {
						c++
					}
					if f <= -0.5 {
						c--
					}
					rv := pred + float64(twoE*float64(c))
					rvT := T(rv)
					if d, dT := rv-fv, float64(rvT)-fv; d <= bound && -d <= bound && dT <= bound && -dT <= bound {
						code, rec = int32(c), rvT
					}
				}
				codes[k], r[base+i] = code, rec
				k++
			}
		}
	}
}

// lorenzoBlock decodes one Lorenzo block whose first code is k, in the
// encoder's order. Its loops split on hz and carry two neighbours along a
// run; the encoder's, where the quantiser dominates, gain nothing by that.
func (d decoder[T]) lorenzoBlock(b *block, k int) {
	twoE, r, codes := d.twoE, d.recon, d.codes
	sz, sy, z0, y0, x0 := b.stride[0], b.stride[1], b.start[0], b.start[1], b.start[2]
	n0, ny, nx := b.size[0], b.size[1], b.size[2]
	base, _, _ := b.row(0, 0)
	dOff, dK := sy-1, nx-1
	for s := 0; s < n0+ny+nx-2; s++ {
		for l0 := max(0, s-ny-nx+2); l0 <= min(s, n0-1); l0++ {
			t, hz := s-l0, z0+l0 > 0
			lo, hi := max(0, t-nx+1), min(t, ny-1)
			off, kk, n := base+l0*sz+lo*sy+t-lo, k+(l0*ny+lo)*nx+t-lo, hi-lo+1
			if y0+lo == 0 { // the first point is on the domain's y = 0 row
				d.put(off, kk, lorenzoAt(r, off, sz, sy, hz, false, x0+t-lo > 0))
				off, kk, n = off+dOff, kk+dK, n-1
			}
			if n > 0 && x0+t-hi == 0 { // the last is on the x = 0 column
				n--
				d.put(off+n*dOff, kk+n*dK, lorenzoAt(r, off+n*dOff, sz, sy, hz, true, false))
			}
			if n == 0 {
				continue
			}
			// A point's y−1 neighbour is the previous point's x−1 neighbour,
			// and its y−1,z−1 neighbour the previous point's x−1,z−1.
			if hz {
				fy, fyz := float64(r[off-sy]), float64(r[off-sy-sz])
				for ; n > 0; n, off, kk = n-1, off+dOff, kk+dK {
					fx := float64(r[off-1])
					fz := float64(r[off-sz])
					fxy := float64(r[off-1-sy])
					fxz := float64(r[off-1-sz])
					fxyz := float64(r[off-1-sy-sz])
					if code := codes[kk]; code != unpredictable {
						r[off] = T(fx + fy + fz - fxy - fxz - fyz + fxyz + float64(twoE*float64(code)))
					}
					fy, fyz = fx, fxz
				}
			} else {
				fy := float64(r[off-sy])
				for ; n > 0; n, off, kk = n-1, off+dOff, kk+dK {
					fx := float64(r[off-1])
					if code := codes[kk]; code != unpredictable {
						r[off] = T(fx + fy - float64(r[off-1-sy]) + float64(twoE*float64(code)))
					}
					fy = fx
				}
			}
		}
	}
}

// regressBlock decodes one regression block whose first code is k.
func (d decoder[T]) regressBlock(b *block, coeffs *[4]float64, k int) {
	twoE, r := d.twoE, d.recon
	ci := coeffs[b.nd]
	for l0 := 0; l0 < b.size[0]; l0++ {
		for l1 := 0; l1 < b.size[1]; l1++ {
			base, _, _ := b.row(l0, l1)
			pred := b.regressRow(coeffs, l0, l1)
			for i, code := range d.codes[k : k+b.size[2]] {
				if code != unpredictable {
					r[base+i] = T(pred + float64(ci*float64(i)) + float64(twoE*float64(code)))
				}
			}
			k += b.size[2]
		}
	}
}

// lorenzoAt is the Lorenzo prediction at off from the neighbours the point
// has along z, y and x: the full predictor's expression with the absent
// terms left out, in the same order.
func lorenzoAt[T grid.Float](r []T, off, sz, sy int, hz, hy, hx bool) float64 {
	switch {
	case hz && hy && hx:
		fx := float64(r[off-1])
		fy := float64(r[off-sy])
		fz := float64(r[off-sz])
		fxy := float64(r[off-1-sy])
		fxz := float64(r[off-1-sz])
		fyz := float64(r[off-sy-sz])
		fxyz := float64(r[off-1-sy-sz])
		return fx + fy + fz - fxy - fxz - fyz + fxyz
	case hz && hy:
		return float64(r[off-sy]) + float64(r[off-sz]) - float64(r[off-sy-sz])
	case hz && hx:
		return float64(r[off-1]) + float64(r[off-sz]) - float64(r[off-1-sz])
	case hy && hx:
		return float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
	case hz:
		return float64(r[off-sz])
	case hy:
		return float64(r[off-sy])
	case hx:
		return float64(r[off-1])
	}
	return 0
}

// gatherLiterals returns the values of the points whose code is
// unpredictable in stream order: block by block, row-major within a block.
// A field without one, the common case, costs one scan of codes.
func gatherLiterals[T grid.Float](data []T, codes []int32, blocks []grid.Block, strides []int) []T {
	literals := make([]T, 0)
	if !slices.Contains(codes, unpredictable) {
		return literals
	}
	k := 0
	for _, gb := range blocks {
		b := padBlock(gb, strides)
		for i, code := range codes[k : k+gb.Len()] {
			if code == unpredictable {
				literals = append(literals, data[b.offset(i)])
			}
		}
		k += gb.Len()
	}
	return literals
}

// placeLiterals is gatherLiterals' inverse: it writes the literals into
// recon at the points whose code is unpredictable, or reports false when
// they run out first.
func placeLiterals[T grid.Float](recon, literals []T, codes []int32, blocks []grid.Block, strides []int) bool {
	if len(literals) == 0 {
		return !slices.Contains(codes, unpredictable)
	}
	k := 0
	for _, gb := range blocks {
		b := padBlock(gb, strides)
		for i, code := range codes[k : k+gb.Len()] {
			if code == unpredictable {
				if len(literals) == 0 {
					return false
				}
				recon[b.offset(i)] = literals[0]
				literals = literals[1:]
			}
		}
		k += gb.Len()
	}
	return true
}

// selectPredictor fits value ~ c0 + c1·i0 + c2·i1 + c3·i2 over the block's
// original data by least squares (normal equations on a small,
// well-conditioned system), i0 being the slowest block-local coordinate,
// and reports whether that regression's residual Σ|v − pred| beats the
// Lorenzo predictor's on the same data, mirroring SZ 2.x's predictor
// selection. The fit's Aᵀb sums and the Lorenzo residual come from one
// row-major pass, the regression residual from a second. Each sum runs in
// row-major point order, each prediction summed as the encoder sums it.
// zeros holds at least a row of zeros.
//
// AᵀA holds sums of products of block-local coordinates: integers, every
// partial sum of which float64 holds exactly while the block's Σi² stays
// under 2^53 (any edge up to 1,900 at rank 3; the default is 6), so it is
// computed from the extents in closed form. Aᵀb has one sum per padded
// axis, and a column the rank lacks keeps its 0·v products: 0·Inf is NaN,
// so a non-finite value poisons that column as it always has.
func selectPredictor[T grid.Float](data, zeros []T, b *block) (coeffs [4]float64, regress bool) {
	nx, x0 := b.size[2], b.start[2]
	// Aᵀb by padded axis: Σv, then Σ l·v for each of the three coordinates,
	// in scalars rather than an array so that the compiler keeps them in
	// registers.
	var s0, sz, sy, sx, errLorenzo float64
	for l0 := 0; l0 < b.size[0]; l0++ {
		f0 := float64(l0)
		for l1 := 0; l1 < b.size[1]; l1++ {
			f1 := float64(l1)
			base, z, y := b.row(l0, l1)
			// The row and its y−1, z−1 and y−1,z−1 neighbour rows, each
			// with the value left of its first point: zeros where the
			// neighbour is absent.
			row, fx := neighbourRow(data, zeros, true, x0 > 0, base, nx)
			up, fxy := neighbourRow(data, zeros, y > 0, x0 > 0, base-b.stride[1], nx)
			back, fxz := neighbourRow(data, zeros, z > 0, x0 > 0, base-b.stride[0], nx)
			backUp, fxyz := neighbourRow(data, zeros, y > 0 && z > 0, x0 > 0, base-b.stride[1]-b.stride[0], nx)
			up, back, backUp = up[:len(row)], back[:len(row)], backUp[:len(row)]
			for i, v := range row {
				fv, fy, fz, fyz := float64(v), float64(up[i]), float64(back[i]), float64(backUp[i])
				errLorenzo += math.Abs(fv - (fx + fy + fz - fxy - fxz - fyz + fxyz))
				s0 += fv
				sz += float64(f0 * fv)
				sy += float64(f1 * fv)
				sx += float64(float64(i) * fv)
				fx, fxy, fxz, fxyz = fv, fy, fz, fyz
			}
		}
	}
	// A real axis j feeds column j+1; a padded axis, always at coordinate 0,
	// holds the 0·v sums of a column past the rank.
	atb := [4]float64{s0}
	o := 3 - b.nd
	for q, sq := range [3]float64{sz, sy, sx} {
		if q >= o {
			atb[q-o+1] = sq
		} else {
			atb[b.nd+1+q] = sq
		}
	}
	// The regression wins when its residual is below errLorenzo. That sum
	// only grows as terms are added, or turns NaN, so it cannot win once
	// it reaches errLorenzo, nor at all when errLorenzo is 0 or NaN.
	if !(errLorenzo > 0) {
		return coeffs, false
	}
	coeffs = solve4(normalMatrix(b), atb)
	var errRegress float64
	ci := coeffs[b.nd]
	for l0 := 0; l0 < b.size[0]; l0++ {
		for l1 := 0; l1 < b.size[1]; l1++ {
			base, _, _ := b.row(l0, l1)
			pred := b.regressRow(&coeffs, l0, l1)
			for i, v := range data[base : base+nx] {
				errRegress += math.Abs(float64(v) - (pred + float64(ci*float64(i))))
			}
			if !(errRegress < errLorenzo) {
				return coeffs, false
			}
		}
	}
	return coeffs, true
}

// neighbourRow returns the n values at off and the value before them, or
// n zeros and 0 for a neighbour row that is absent; the value before is 0
// too when left is false.
func neighbourRow[T grid.Float](data, zeros []T, present, left bool, off, n int) ([]T, float64) {
	switch {
	case !present:
		return zeros[:n], 0
	case !left:
		return data[off : off+n], 0
	}
	return data[off : off+n], float64(data[off-1])
}

// normalMatrix is AᵀA of the block's regression in closed form: a
// coordinate the rank lacks has a zero column.
func normalMatrix(b *block) [4][4]float64 {
	n := b.size[0] * b.size[1] * b.size[2]
	var ata [4][4]float64
	ata[0][0] = float64(n)
	var sum [3]int // Σi over one axis of the block, per real axis
	for j := 0; j < b.nd; j++ {
		e := b.size[3-b.nd+j]
		sum[j] = e * (e - 1) / 2
		ata[0][j+1] = float64(sum[j] * (n / e))
		ata[j+1][0] = ata[0][j+1]
		ata[j+1][j+1] = float64((e - 1) * e * (2*e - 1) / 6 * (n / e))
		for k := 0; k < j; k++ {
			ata[k+1][j+1] = float64(sum[k] * sum[j] * (n / (e * b.size[3-b.nd+k])))
			ata[j+1][k+1] = ata[k+1][j+1]
		}
	}
	return ata
}
