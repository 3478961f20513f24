package sz

import (
	"fmt"
	"math"

	"fraz/internal/grid"
	"fraz/internal/quantize"
)

// This file holds the hot loops: the predict/quantize walks of the encoder
// and decoder, and the Lorenzo residual row of the predictor selection
// (fitRegression and regressionBeatsLorenzo in sz.go walk blocks the same
// way). Every one walks a block a row at a time — a row is a contiguous run
// along the fastest axis, so within a row the flat offset advances by 1 and
// every slower-axis Lorenzo guard (y>0, z>0) is a row constant hoisted out
// of the inner loop. Only the first element of a domain-edge row (global
// x == 0) needs special handling, peeled off before the guard-free loop
// body.
//
// One walk serves ranks 1 to 3: a block is padded to three axes, a lower
// rank's missing slow axes having extent 1 at coordinate 0. There every
// Lorenzo guard on them is false, which leaves exactly the 1-D or 2-D
// predictor, and the regression prediction omits their terms.
//
// Bit-compatibility contract: every kernel evaluates the exact floating-point
// expressions of the original per-point walk, with identical association
// order, so streams and reconstructions are unchanged. The only deviation is
// dropping "+ 0.0" terms for absent neighbours, which can flip a prediction
// between -0.0 and +0.0 — invisible to the quantizer and to the selection's
// absolute residuals: v-pred, round(diff/2e), pred+2e*code and |v-pred| are
// identical for both zero signs.

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

// regressRow returns the row-constant part of the regression prediction at
// block-local row (l0, l1): c0 plus each slower coordinate's term, summed in
// the prediction's order c0 + c1·i0 + c2·i1 + c3·i2 over the field's axes.
// A point at i along the row adds c[nd]·i.
func (p *block) regressRow(c *[4]float64, l0, l1 int) float64 {
	pred := c[0]
	if p.nd == 3 {
		pred += c[1] * float64(l0)
	}
	if p.nd >= 2 {
		pred += c[p.nd-1] * float64(l1)
	}
	return pred
}

// encoder carries the per-field compression state threaded through the row
// kernels: the quantizer, the original data, the running reconstruction the
// Lorenzo predictor reads, and the output code/literal streams.
type encoder[T grid.Float] struct {
	q        *quantize.Quantizer
	bound    float64
	data     []T
	recon    []T
	codes    []int32
	literals []T
}

// point quantizes one value against its prediction.
func (e *encoder[T]) point(off int, pred float64) {
	v := float64(e.data[off])
	code, rec, ok := e.q.Quantize(v, pred)
	if ok {
		// The decompressor stores reconstructions at the element type's
		// precision, so the bound must hold after the cast as well (a no-op
		// for float64 input).
		recT := T(rec)
		if math.Abs(float64(recT)-v) > e.bound {
			ok = false
		} else {
			e.codes = append(e.codes, code)
			e.recon[off] = recT
		}
	}
	if !ok {
		e.codes = append(e.codes, unpredictable)
		e.literals = append(e.literals, e.data[off])
		e.recon[off] = e.data[off]
	}
}

// lorenzoBlock encodes one block with the Lorenzo predictor.
func (e *encoder[T]) lorenzoBlock(p *block) {
	for l0 := 0; l0 < p.size[0]; l0++ {
		for l1 := 0; l1 < p.size[1]; l1++ {
			base, z, y := p.row(l0, l1)
			e.lorenzoRow(base, p.size[2], z, y, p.start[2], p.stride[0], p.stride[1])
		}
	}
}

func (e *encoder[T]) lorenzoRow(base, n, z, y, x0, sz, sy int) {
	off := base
	r := e.recon
	if x0 == 0 {
		var pred float64
		switch {
		case z > 0 && y > 0:
			pred = float64(r[off-sy]) + float64(r[off-sz]) - float64(r[off-sy-sz])
		case z > 0:
			pred = float64(r[off-sz])
		case y > 0:
			pred = float64(r[off-sy])
		}
		e.point(off, pred)
		off++
		n--
	}
	switch {
	case z > 0 && y > 0:
		for i := 0; i < n; i++ {
			fx := float64(r[off-1])
			fy := float64(r[off-sy])
			fz := float64(r[off-sz])
			fxy := float64(r[off-1-sy])
			fxz := float64(r[off-1-sz])
			fyz := float64(r[off-sy-sz])
			fxyz := float64(r[off-1-sy-sz])
			e.point(off, fx+fy+fz-fxy-fxz-fyz+fxyz)
			off++
		}
	case z > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sz]) - float64(r[off-1-sz])
			e.point(off, pred)
			off++
		}
	case y > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
			e.point(off, pred)
			off++
		}
	default:
		for i := 0; i < n; i++ {
			e.point(off, float64(r[off-1]))
			off++
		}
	}
}

// regressBlock encodes one block with the regression predictor.
func (e *encoder[T]) regressBlock(p *block, coeffs [4]float64) {
	ci := coeffs[p.nd]
	for l0 := 0; l0 < p.size[0]; l0++ {
		for l1 := 0; l1 < p.size[1]; l1++ {
			base, _, _ := p.row(l0, l1)
			pred := p.regressRow(&coeffs, l0, l1)
			for i := 0; i < p.size[2]; i++ {
				e.point(base+i, pred+ci*float64(i))
			}
		}
	}
}

// decoder mirrors encoder for decompression: it consumes the code and literal
// streams in visit order and writes reconstructions.
type decoder[T grid.Float] struct {
	q        *quantize.Quantizer
	codes    []int32
	literals []T
	recon    []T
	codePos  int
	litPos   int
	err      error
}

func (d *decoder[T]) point(off int, pred float64) {
	if d.err != nil {
		return
	}
	code := d.codes[d.codePos]
	d.codePos++
	if code == unpredictable {
		if d.litPos >= len(d.literals) {
			d.err = fmt.Errorf("%w: literal stream exhausted", ErrCorrupt)
			return
		}
		d.recon[off] = d.literals[d.litPos]
		d.litPos++
		return
	}
	d.recon[off] = T(d.q.Dequantize(pred, code))
}

func (d *decoder[T]) lorenzoBlock(p *block) {
	for l0 := 0; l0 < p.size[0]; l0++ {
		for l1 := 0; l1 < p.size[1]; l1++ {
			base, z, y := p.row(l0, l1)
			d.lorenzoRow(base, p.size[2], z, y, p.start[2], p.stride[0], p.stride[1])
		}
	}
}

func (d *decoder[T]) lorenzoRow(base, n, z, y, x0, sz, sy int) {
	off := base
	r := d.recon
	if x0 == 0 {
		var pred float64
		switch {
		case z > 0 && y > 0:
			pred = float64(r[off-sy]) + float64(r[off-sz]) - float64(r[off-sy-sz])
		case z > 0:
			pred = float64(r[off-sz])
		case y > 0:
			pred = float64(r[off-sy])
		}
		d.point(off, pred)
		off++
		n--
	}
	switch {
	case z > 0 && y > 0:
		for i := 0; i < n; i++ {
			fx := float64(r[off-1])
			fy := float64(r[off-sy])
			fz := float64(r[off-sz])
			fxy := float64(r[off-1-sy])
			fxz := float64(r[off-1-sz])
			fyz := float64(r[off-sy-sz])
			fxyz := float64(r[off-1-sy-sz])
			d.point(off, fx+fy+fz-fxy-fxz-fyz+fxyz)
			off++
		}
	case z > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sz]) - float64(r[off-1-sz])
			d.point(off, pred)
			off++
		}
	case y > 0:
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-1-sy])
			d.point(off, pred)
			off++
		}
	default:
		for i := 0; i < n; i++ {
			d.point(off, float64(r[off-1]))
			off++
		}
	}
}

func (d *decoder[T]) regressBlock(p *block, coeffs [4]float64) {
	ci := coeffs[p.nd]
	for l0 := 0; l0 < p.size[0]; l0++ {
		for l1 := 0; l1 < p.size[1]; l1++ {
			base, _, _ := p.row(l0, l1)
			pred := p.regressRow(&coeffs, l0, l1)
			for i := 0; i < p.size[2]; i++ {
				d.point(base+i, pred+ci*float64(i))
			}
		}
	}
}

// lorenzoResidualRow adds to acc, one point at a time, |v − pred| for the n
// values of a row at base, pred being the Lorenzo prediction from the
// original data — the selection's estimate, exactly as SZ makes it.
func lorenzoResidualRow[T grid.Float](acc float64, d []T, base, n, z, y, x0, sz, sy int) float64 {
	off := base
	if x0 == 0 {
		var pred float64
		switch {
		case z > 0 && y > 0:
			pred = float64(d[off-sy]) + float64(d[off-sz]) - float64(d[off-sy-sz])
		case z > 0:
			pred = float64(d[off-sz])
		case y > 0:
			pred = float64(d[off-sy])
		}
		acc += math.Abs(float64(d[off]) - pred)
		off++
		n--
	}
	switch {
	case z > 0 && y > 0:
		for i := 0; i < n; i++ {
			fx := float64(d[off-1])
			fy := float64(d[off-sy])
			fz := float64(d[off-sz])
			fxy := float64(d[off-1-sy])
			fxz := float64(d[off-1-sz])
			fyz := float64(d[off-sy-sz])
			fxyz := float64(d[off-1-sy-sz])
			acc += math.Abs(float64(d[off]) - (fx + fy + fz - fxy - fxz - fyz + fxyz))
			off++
		}
	case z > 0:
		for i := 0; i < n; i++ {
			acc += math.Abs(float64(d[off]) - (float64(d[off-1]) + float64(d[off-sz]) - float64(d[off-1-sz])))
			off++
		}
	case y > 0:
		for i := 0; i < n; i++ {
			acc += math.Abs(float64(d[off]) - (float64(d[off-1]) + float64(d[off-sy]) - float64(d[off-1-sy])))
			off++
		}
	default:
		for i := 0; i < n; i++ {
			acc += math.Abs(float64(d[off]) - float64(d[off-1]))
			off++
		}
	}
	return acc
}
