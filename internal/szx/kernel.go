package szx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"fraz/internal/grid"
	"fraz/internal/pool"
)

func appendHeader(out []byte, magic uint32, shape grid.Dims, bound float64, blockSize int) []byte {
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = append(out, byte(len(shape)))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(bound))
	out = binary.LittleEndian.AppendUint32(out, uint32(blockSize))
	return grid.AppendShape(out, shape)
}

// compress is the encoder at either width: T is the element type and U the
// unsigned word of the same width, through which every block is read as
// IEEE-754 bit patterns in place (grid.Bits). A non-nil recon receives what
// decompress will write: the representative across a constant block, each
// other word masked to the bytes its block keeps.
func compress[T grid.Float, U grid.Word](data, recon []T, shape grid.Dims, o Options) []byte {
	n := len(data)
	bs := o.BlockSize
	elem := grid.ElemSize[T]()
	nBlocks := (n + bs - 1) / bs
	bitmapLen := (nBlocks + 7) / 8
	headerLen := fixedHeaderLen + 4*len(shape)

	out := make([]byte, 0, headerLen+bitmapLen)
	out = appendHeader(out, stream.Magic(elem), shape, o.ErrorBound, bs)
	out = append(out, make([]byte, bitmapLen)...)
	bitmap := out[headerLen:]

	var consts []T
	// Neither scratch slice grows: there is one kept count per block, and a
	// block's planes hold at most every byte of its values. The puts are
	// deferred so the scratch cannot leak if an early return is ever added
	// to the block loop.
	kept := pool.Get[byte](nBlocks)[:0]
	planes := pool.Get[byte](elem * n)[:0]
	defer pool.Put(kept)
	defer pool.Put(planes)

	lb := boundExp(o.ErrorBound)
	twice := 2 * o.ErrorBound
	words, rwords := grid.Bits[T, U](data), grid.Bits[T, U](recon)
	expMask := grid.ExpMask[U]()
	expBits := bits.OnesCount64(uint64(expMask))

	for bi := 0; bi < nBlocks; bi++ {
		lo := bi * bs
		hi := min(lo+bs, n)
		block, pats := data[lo:hi], words[lo:hi]

		// Pass 1: min/max scan with finiteness check on the raw bits (NaN
		// breaks ordered comparisons, so the scan cannot rely on them).
		finite := true
		bmin, bmax := block[0], block[0]
		for i, v := range block {
			if pats[i]&expMask == expMask {
				finite = false
				break
			}
			if v < bmin {
				bmin = v
			}
			if v > bmax {
				bmax = v
			}
		}

		if finite {
			spread := float64(bmax) - float64(bmin)
			if spread <= twice {
				// Constant candidate: the midrange is within the bound of
				// every member; re-check after the narrowing cast so
				// float32 rounding cannot break the guarantee. The half is
				// rounded on its own, or arm64 fuses it into a multiply-add.
				rep := T(float64(bmin) + float64(spread/2))
				if float64(rep)-float64(bmin) <= o.ErrorBound && float64(bmax)-float64(rep) <= o.ErrorBound {
					bitmap[bi>>3] |= 1 << (bi & 7)
					consts = append(consts, rep)
					if recon != nil {
						fill(recon[lo:hi], rep)
					}
					continue
				}
			}
		}

		// Nonconstant: derive the kept byte count from the block's largest
		// magnitude (full width for non-finite blocks) and pack byte planes.
		k := elem
		if finite {
			maxAbs := max(float64(bmax), -float64(bmin))
			_, e := math.Frexp(maxAbs)
			k = keptBytes(e, lb, expBits, elem)
		}
		kept = append(kept, byte(k))
		m, base := len(pats), len(planes)
		planes = planes[:base+k*m]
		for p := 0; p < k; p++ {
			shift := uint(8 * (elem - 1 - p))
			plane := planes[base+p*m : base+(p+1)*m]
			for i, b := range pats {
				plane[i] = byte(b >> shift)
			}
		}
		if recon != nil {
			mask := ^U(0) << uint(8*(elem-k))
			rw := rwords[lo:hi]
			for i, b := range pats {
				rw[i] = b & mask
			}
		}
	}

	out = grid.AppendLE(out, consts)
	out = append(out, kept...)
	out = append(out, planes...)
	return out
}

// decompress is the decoder at either width; like compress it works on the
// bit view, so the byte planes are OR-ed straight into out.
func decompress[T grid.Float, U grid.Word](out []T, h header, body []byte) error {
	bitmap, consts, kept, planes, nBlocks, err := bodySections(h, body)
	if err != nil {
		return err
	}
	n := len(out)
	elem := grid.ElemSize[T]()
	words := grid.Bits[T, U](out)

	ci, ki, pi := 0, 0, 0
	for bi := 0; bi < nBlocks; bi++ {
		lo := bi * h.blockSize
		hi := min(lo+h.blockSize, n)

		if constant(bitmap, bi) {
			var rep [1]T
			grid.DecodeLE(rep[:], consts[ci:])
			ci += elem
			fill(out[lo:hi], rep[0])
			continue
		}

		k := int(kept[ki])
		ki++
		if k < 2 || k > elem {
			return fmt.Errorf("%w: kept bytes %d for a block of %d-byte values", ErrCorrupt, k, elem)
		}
		pats := words[lo:hi]
		if pi+k*len(pats) > len(planes) {
			return fmt.Errorf("%w: truncated byte planes", ErrCorrupt)
		}
		for i := range pats {
			pats[i] = 0
		}
		for p := 0; p < k; p++ {
			shift := uint(8 * (elem - 1 - p))
			plane := planes[pi : pi+len(pats)]
			pi += len(pats)
			for i, b := range plane {
				pats[i] |= U(b) << shift
			}
		}
	}
	if pi != len(planes) {
		return fmt.Errorf("%w: %d trailing bytes after byte planes", ErrCorrupt, len(planes)-pi)
	}
	return nil
}

// fill sets every value of dst to v: a constant block, as both directions
// reconstruct it.
func fill[T grid.Float](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}
