package pressio

import (
	"fmt"
	"math"

	"fraz/internal/frsz"
	"fraz/internal/grid"
	"fraz/internal/mgard"
	"fraz/internal/sz"
	"fraz/internal/szx"
	"fraz/internal/zfp"
)

// This file is the codec table: one row per registered codec, and nothing
// about a codec is stated anywhere else. Error magnitudes admit twelve
// decades either side of one (squared for a squared error); the bit-valued
// parameters run from one bit to the float32 width (see Param.Limits for
// float64).

var (
	szAbsEncode = reconEncoder(func(_ Buffer, p float64) sz.Options { return sz.Options{ErrorBound: p} },
		sz.CompressAndReconstruct[float32], sz.CompressAndReconstruct[float64])
	szDecode    = decoder(sz.DecompressInto[float32], sz.DecompressInto[float64])
	zfpDecode   = decoder(zfp.DecompressInto[float32], zfp.DecompressInto[float64])
	mgardDecode = decoder(mgard.DecompressInto[float32], mgard.DecompressInto[float64])
)

// szRelEncode is sz:abs at the given share of the field's value range, which
// must be finite for the share to name a bound.
func szRelEncode(buf Buffer, p float64) ([]byte, error) {
	vr := buf.ValueRange()
	if math.IsInf(vr, 0) || math.IsNaN(vr) {
		return nil, fmt.Errorf("%w: sz:rel needs a finite value range, the field's is %v", sz.ErrInvalidInput, vr)
	}
	if vr <= 0 {
		vr = 1 // constant field: any positive absolute bound preserves it
	}
	return szAbsEncode(buf, p*vr)
}

// zfpEncode builds the Encode of one ZFP mode.
func zfpEncode(opts func(param float64) zfp.Options) func(Buffer, float64) ([]byte, error) {
	return encoder(func(_ Buffer, p float64) zfp.Options { return opts(p) }, zfp.Compress[float32], zfp.Compress[float64])
}

// mgardEncode builds the Encode of one MGARD norm.
func mgardEncode(norm mgard.Norm) func(Buffer, float64) ([]byte, error) {
	return encoder(func(_ Buffer, p float64) mgard.Options { return mgard.Options{Norm: norm, Bound: p} },
		mgard.Compress[float32], mgard.Compress[float64])
}

var builtin = []*Codec{
	{
		Name: "sz:abs", MinRank: 1, MaxRank: 3,
		Param:        Param{Name: "absolute error bound", Unit: UnitAbsError, Lo: 1e-12, Hi: 1e12},
		Encode:       szAbsEncode,
		Decode:       szDecode,
		Reconstructs: true,
	},
	{
		// The configuration most scientific users run: bounds quoted as a
		// share (say 10^-3) of the value range.
		Name: "sz:rel", MinRank: 1, MaxRank: 3,
		Param:        Param{Name: "value-range-relative error bound", Unit: UnitRangeFraction, Lo: 1e-12, Hi: 1},
		Encode:       szRelEncode,
		Decode:       szDecode,
		Reconstructs: true,
	},
	{
		// The speed tier: roughly an order of magnitude faster than sz:abs at
		// a data-dependent ratio cost, under the same contract. It predicts
		// nothing across neighbours, so it is rank-agnostic — the only lossy
		// error-bounded codec accepting 4-D data.
		Name: "szx:abs", MinRank: 1, MaxRank: 4,
		Param: Param{Name: "absolute error bound", Unit: UnitAbsError, Lo: 1e-12, Hi: 1e12},
		Encode: reconEncoder(func(_ Buffer, p float64) szx.Options { return szx.Options{ErrorBound: p} },
			szx.CompressAndReconstruct[float32], szx.CompressAndReconstruct[float64]),
		Decode:       decoder(szx.DecompressInto[float32], szx.DecompressInto[float64]),
		Reconstructs: true,
	},
	{
		Name: "zfp:accuracy", MinRank: 1, MaxRank: 3,
		Param:  Param{Name: "absolute error tolerance", Unit: UnitAbsError, Lo: 1e-12, Hi: 1e12},
		Encode: zfpEncode(func(p float64) zfp.Options { return zfp.Options{Mode: zfp.ModeAccuracy, Tolerance: p} }),
		Decode: zfpDecode,
	},
	{
		Name: "zfp:rate", MinRank: 1, MaxRank: 3,
		Param:  Param{Name: "bits per value", Unit: UnitBits, Lo: 1, Hi: 32},
		Encode: zfpEncode(func(p float64) zfp.Options { return zfp.Options{Mode: zfp.ModeFixedRate, Rate: p} }),
		Decode: zfpDecode,
	},
	{
		// Searched up to 32 planes at either width, so doubles top out near
		// float32 resolution in this mode; zfp:accuracy, whose bound drives
		// the plane cutoff through the exponent, reaches all 64.
		Name: "zfp:precision", MinRank: 1, MaxRank: 3,
		Param:  Param{Name: "bit planes per block", Unit: UnitPlanes, Lo: 1, Hi: 32, Integer: true},
		Encode: zfpEncode(func(p float64) zfp.Options { return zfp.Options{Mode: zfp.ModeFixedPrecision, Precision: int(p)} }),
		Decode: zfpDecode,
	},
	{
		Name: "mgard:abs", MinRank: 2, MaxRank: 3,
		Param:  Param{Name: "infinity-norm bound", Unit: UnitAbsError, Lo: 1e-12, Hi: 1e12},
		Encode: mgardEncode(mgard.NormInfinity),
		Decode: mgardDecode,
	},
	{
		Name: "mgard:l2", MinRank: 2, MaxRank: 3,
		Param:  Param{Name: "mean-squared-error bound", Unit: UnitSquaredError, Lo: 1e-24, Hi: 1e24},
		Encode: mgardEncode(mgard.NormL2),
		Decode: mgardDecode,
	},
	{
		// The one true fixed-rate codec: every value costs exactly the given
		// number of bits, so Size is arithmetic and a fixed-ratio objective
		// needs no search (core's direct path).
		Name: "frsz:rate", MinRank: 1, MaxRank: 4,
		Param: Param{Name: "bits per value", Unit: UnitBits, Lo: 1, Hi: 32, Integer: true},
		Encode: encoder(func(_ Buffer, p float64) frsz.Options { return frsz.Options{BitsPerValue: int(p)} },
			frsz.Compress[float32], frsz.Compress[float64]),
		Decode: decoder(frsz.DecompressInto[float32], frsz.DecompressInto[float64]),
		Size: func(shape grid.Dims, bits int) int {
			return frsz.CompressedSize(shape.Len(), shape.NDims(), bits, 0)
		},
	},
	{
		Name: "flate:lossless", MinRank: 1, MaxRank: 4,
		Param: Param{Name: "unused (lossless)", Unit: UnitNone, Lo: 1e-12, Hi: 1e12},
		Encode: encoder(func(Buffer, float64) struct{} { return struct{}{} },
			losslessCompress[float32], losslessCompress[float64]),
		Decode: decoder(losslessDecompressInto[float32], losslessDecompressInto[float64]),
	},
}

func init() {
	for _, c := range builtin {
		Register(c)
	}
}
