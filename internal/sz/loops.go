package sz

import (
	"fmt"
	"math"

	"fraz/internal/grid"
	"fraz/internal/quantize"
)

// This file holds the quantization hot loops, restructured from the original
// per-point closure walk (odometer + stride sum + div/mod coordinate recovery
// for every element) into per-rank row kernels: a row is a contiguous run
// along the fastest axis, so within a row the flat offset advances by 1 and
// every slower-axis Lorenzo guard (y>0, z>0) is a row constant hoisted out of
// the inner loop. Only the first element of a domain-edge row (global x == 0)
// needs special handling, peeled off before the guard-free loop body.
//
// Bit-compatibility contract: every kernel evaluates the exact floating-point
// expressions of the original lorenzoPredictor/predictRegression walk, with
// identical association order, so streams and reconstructions are unchanged.
// The only deviation is dropping "+ 0.0" terms for absent neighbours, which
// can flip a prediction between -0.0 and +0.0 — invisible to the quantizer:
// v-pred, round(diff/2e), and pred+2e*code are identical for both zero signs.

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

// point quantizes one value against its prediction — the body of the original
// per-point closure, unchanged.
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

// lorenzoBlock encodes one block with the Lorenzo predictor, dispatching to
// the rank-specialized row kernels.
func (e *encoder[T]) lorenzoBlock(strides []int, b grid.Block) {
	switch len(b.Start) {
	case 1:
		e.lorenzoRow1(b.Start[0], b.Size[0], b.Start[0])
	case 2:
		sy := strides[0]
		for ly := 0; ly < b.Size[0]; ly++ {
			y := b.Start[0] + ly
			e.lorenzoRow2(y*sy+b.Start[1], b.Size[1], y, b.Start[1], sy)
		}
	case 3:
		sz, sy := strides[0], strides[1]
		for lz := 0; lz < b.Size[0]; lz++ {
			z := b.Start[0] + lz
			for ly := 0; ly < b.Size[1]; ly++ {
				y := b.Start[1] + ly
				e.lorenzoRow3(z*sz+y*sy+b.Start[2], b.Size[2], z, y, b.Start[2], sz, sy)
			}
		}
	default:
		// 4-D: previous element along the fastest axis, like the 1-D kernel.
		for l0 := 0; l0 < b.Size[0]; l0++ {
			for l1 := 0; l1 < b.Size[1]; l1++ {
				for l2 := 0; l2 < b.Size[2]; l2++ {
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					e.lorenzoRow1(base, b.Size[3], b.Start[3])
				}
			}
		}
	}
}

func (e *encoder[T]) lorenzoRow1(base, n, x0 int) {
	off := base
	if x0 == 0 {
		e.point(off, 0)
		off++
		n--
	}
	r := e.recon
	for i := 0; i < n; i++ {
		e.point(off, float64(r[off-1]))
		off++
	}
}

func (e *encoder[T]) lorenzoRow2(base, n, y, x0, sy int) {
	off := base
	r := e.recon
	if x0 == 0 {
		var pred float64
		if y > 0 {
			pred = float64(r[off-sy])
		}
		e.point(off, pred)
		off++
		n--
	}
	if y > 0 {
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-sy-1])
			e.point(off, pred)
			off++
		}
	} else {
		for i := 0; i < n; i++ {
			e.point(off, float64(r[off-1]))
			off++
		}
	}
}

func (e *encoder[T]) lorenzoRow3(base, n, z, y, x0, sz, sy int) {
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

// regressBlock encodes one block with the regression predictor. Along a row
// only the fastest-axis coordinate varies, so the row-constant part of the
// prediction is accumulated once, in predictRegression's association order.
func (e *encoder[T]) regressBlock(strides []int, b grid.Block, coeffs [4]float64) {
	switch len(b.Start) {
	case 1:
		base := b.Start[0]
		for i := 0; i < b.Size[0]; i++ {
			e.point(base+i, coeffs[0]+coeffs[1]*float64(i))
		}
	case 2:
		for ly := 0; ly < b.Size[0]; ly++ {
			base := (b.Start[0]+ly)*strides[0] + b.Start[1]
			p0 := coeffs[0] + coeffs[1]*float64(ly)
			for i := 0; i < b.Size[1]; i++ {
				e.point(base+i, p0+coeffs[2]*float64(i))
			}
		}
	case 3:
		for lz := 0; lz < b.Size[0]; lz++ {
			pz := coeffs[0] + coeffs[1]*float64(lz)
			for ly := 0; ly < b.Size[1]; ly++ {
				base := (b.Start[0]+lz)*strides[0] + (b.Start[1]+ly)*strides[1] + b.Start[2]
				p0 := pz + coeffs[2]*float64(ly)
				for i := 0; i < b.Size[2]; i++ {
					e.point(base+i, p0+coeffs[3]*float64(i))
				}
			}
		}
	default:
		// 4-D: the model uses only the three slowest coordinates, so the
		// prediction is constant along a row.
		for l0 := 0; l0 < b.Size[0]; l0++ {
			p0 := coeffs[0] + coeffs[1]*float64(l0)
			for l1 := 0; l1 < b.Size[1]; l1++ {
				p1 := p0 + coeffs[2]*float64(l1)
				for l2 := 0; l2 < b.Size[2]; l2++ {
					p2 := p1 + coeffs[3]*float64(l2)
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					for i := 0; i < b.Size[3]; i++ {
						e.point(base+i, p2)
					}
				}
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

func (d *decoder[T]) lorenzoBlock(strides []int, b grid.Block) {
	switch len(b.Start) {
	case 1:
		d.lorenzoRow1(b.Start[0], b.Size[0], b.Start[0])
	case 2:
		sy := strides[0]
		for ly := 0; ly < b.Size[0]; ly++ {
			y := b.Start[0] + ly
			d.lorenzoRow2(y*sy+b.Start[1], b.Size[1], y, b.Start[1], sy)
		}
	case 3:
		sz, sy := strides[0], strides[1]
		for lz := 0; lz < b.Size[0]; lz++ {
			z := b.Start[0] + lz
			for ly := 0; ly < b.Size[1]; ly++ {
				y := b.Start[1] + ly
				d.lorenzoRow3(z*sz+y*sy+b.Start[2], b.Size[2], z, y, b.Start[2], sz, sy)
			}
		}
	default:
		for l0 := 0; l0 < b.Size[0]; l0++ {
			for l1 := 0; l1 < b.Size[1]; l1++ {
				for l2 := 0; l2 < b.Size[2]; l2++ {
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					d.lorenzoRow1(base, b.Size[3], b.Start[3])
				}
			}
		}
	}
}

func (d *decoder[T]) lorenzoRow1(base, n, x0 int) {
	off := base
	if x0 == 0 {
		d.point(off, 0)
		off++
		n--
	}
	r := d.recon
	for i := 0; i < n; i++ {
		d.point(off, float64(r[off-1]))
		off++
	}
}

func (d *decoder[T]) lorenzoRow2(base, n, y, x0, sy int) {
	off := base
	r := d.recon
	if x0 == 0 {
		var pred float64
		if y > 0 {
			pred = float64(r[off-sy])
		}
		d.point(off, pred)
		off++
		n--
	}
	if y > 0 {
		for i := 0; i < n; i++ {
			pred := float64(r[off-1]) + float64(r[off-sy]) - float64(r[off-sy-1])
			d.point(off, pred)
			off++
		}
	} else {
		for i := 0; i < n; i++ {
			d.point(off, float64(r[off-1]))
			off++
		}
	}
}

func (d *decoder[T]) lorenzoRow3(base, n, z, y, x0, sz, sy int) {
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

func (d *decoder[T]) regressBlock(strides []int, b grid.Block, coeffs [4]float64) {
	switch len(b.Start) {
	case 1:
		base := b.Start[0]
		for i := 0; i < b.Size[0]; i++ {
			d.point(base+i, coeffs[0]+coeffs[1]*float64(i))
		}
	case 2:
		for ly := 0; ly < b.Size[0]; ly++ {
			base := (b.Start[0]+ly)*strides[0] + b.Start[1]
			p0 := coeffs[0] + coeffs[1]*float64(ly)
			for i := 0; i < b.Size[1]; i++ {
				d.point(base+i, p0+coeffs[2]*float64(i))
			}
		}
	case 3:
		for lz := 0; lz < b.Size[0]; lz++ {
			pz := coeffs[0] + coeffs[1]*float64(lz)
			for ly := 0; ly < b.Size[1]; ly++ {
				base := (b.Start[0]+lz)*strides[0] + (b.Start[1]+ly)*strides[1] + b.Start[2]
				p0 := pz + coeffs[2]*float64(ly)
				for i := 0; i < b.Size[2]; i++ {
					d.point(base+i, p0+coeffs[3]*float64(i))
				}
			}
		}
	default:
		for l0 := 0; l0 < b.Size[0]; l0++ {
			p0 := coeffs[0] + coeffs[1]*float64(l0)
			for l1 := 0; l1 < b.Size[1]; l1++ {
				p1 := p0 + coeffs[2]*float64(l1)
				for l2 := 0; l2 < b.Size[2]; l2++ {
					p2 := p1 + coeffs[3]*float64(l2)
					base := (b.Start[0]+l0)*strides[0] + (b.Start[1]+l1)*strides[1] +
						(b.Start[2]+l2)*strides[2] + b.Start[3]
					for i := 0; i < b.Size[3]; i++ {
						d.point(base+i, p2)
					}
				}
			}
		}
	}
}
