package fraz

import (
	"fraz/internal/container"
	"fraz/internal/pressio"
)

// CodecAuto is the per-field automatic codec policy: instead of naming one
// compressor, a client (or Dataset) built with CodecAuto races every
// registered codec whose capability windows admit the field — rank and
// element-width windows, error-boundedness for fidelity-promising archives
// — on a sampled block, and seals with the winner (or, when the winner
// misses the band on the whole field, the runner-up). The race shares the
// client's evaluation cache, so candidate evaluations are never repeated
// across fields, codecs, or calls. Selection picks the best
// ratio-at-quality: for quality objectives (PSNR, SSIM, max-error) the
// in-band candidate with the highest compression ratio; for the fixed-ratio
// objective the in-band candidate with the best measured reconstruction
// PSNR at the target ratio. The chosen codec is recorded per field in the
// container header, so decompression never needs to know a selection
// happened.
const CodecAuto = "auto"

// CodecInfo describes one registered codec: its wire name (recorded in
// .fraz container headers) and the static capabilities callers select on.
// It is a plain value — codec discovery does not hand out compressor
// instances or any other internal type.
//
// The capability windows are what the CodecAuto policy pre-filters
// candidates with: a codec is only raced on a field whose rank lies in
// [MinRank, MaxRank] and whose element width is admitted by
// Float32/Float64.
type CodecInfo struct {
	// Name identifies the codec, e.g. "sz:abs", and is what New and the
	// Codec option accept.
	Name string
	// BoundName names the codec's tunable scalar parameter, e.g. "absolute
	// error bound" or "bits per value".
	BoundName string
	// ErrorBounded reports whether the tuned parameter guarantees a
	// pointwise error bound on the reconstruction (false for the ZFP
	// fixed-rate baseline).
	ErrorBounded bool
	// Lossless marks codecs that reconstruct bit-exactly; their bound
	// parameter is ignored.
	Lossless bool
	// MinRank and MaxRank bound the data ranks the codec accepts (e.g. the
	// MGARD back end rejects 1-D data). Ranks are len(shape).
	MinRank, MaxRank int
	// Float32 and Float64 report which element widths the codec accepts.
	// Every in-tree codec currently accepts both; the window exists so a
	// width-restricted back end filters out of CodecAuto races and
	// capability queries instead of failing at compression time.
	Float32, Float64 bool
	// FixedRate marks true fixed-rate codecs (currently frsz:rate): the
	// tunable parameter is the storage itself, so a FixedRatio objective is
	// satisfied directly — bits per value computed from the target ratio,
	// zero tuning evaluations — instead of searched (see
	// Objective.DirectlySatisfiable and CompressResult.Direct). Note
	// zfp:rate does not qualify: its rate parameter steers an embedded
	// coder whose output length still depends on the data.
	FixedRate bool
}

// SupportsRank reports whether the codec accepts data of the given rank
// (len(shape)).
func (c CodecInfo) SupportsRank(rank int) bool {
	return rank >= c.MinRank && rank <= c.MaxRank
}

// SupportsDType reports whether the codec accepts elements of the named
// width: "float32" or "float64" (the names DecompressResult.DType uses).
// Unknown names are unsupported.
func (c CodecInfo) SupportsDType(dtype string) bool {
	switch dtype {
	case container.Float32.String():
		return c.Float32
	case container.Float64.String():
		return c.Float64
	}
	return false
}

// Codecs lists every registered codec sorted by name. Use it to populate
// CLI help, or to select candidates by capability:
//
//	for _, c := range fraz.Codecs() {
//		if c.ErrorBounded && c.SupportsRank(3) && c.SupportsDType("float64") { ... }
//	}
//
// The CodecAuto policy name is not listed — it is a selection rule over
// these codecs, not a codec.
func Codecs() []CodecInfo {
	descs := pressio.Codecs()
	out := make([]CodecInfo, len(descs))
	for i, d := range descs {
		out[i] = codecInfo(d)
	}
	return out
}

// LookupCodec returns the descriptor registered under name and whether the
// name is known.
func LookupCodec(name string) (CodecInfo, bool) {
	d, ok := pressio.Lookup(name)
	if !ok {
		return CodecInfo{}, false
	}
	return codecInfo(d), true
}

// codecInfo derives the public descriptor from the codec's table row. Only
// the bit-count parameters bound no error; every kernel is generic over
// both element widths.
func codecInfo(d *pressio.Codec) CodecInfo {
	unit := d.Param.Unit
	return CodecInfo{
		Name:         d.Name,
		BoundName:    d.Param.Name,
		ErrorBounded: !unit.IsBitCount(),
		Lossless:     unit == pressio.UnitNone,
		MinRank:      d.MinRank,
		MaxRank:      d.MaxRank,
		Float32:      true,
		Float64:      true,
		FixedRate:    d.Size != nil,
	}
}
