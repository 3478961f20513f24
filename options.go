package fraz

import (
	"fmt"
	"math"

	"fraz/internal/core"
)

// DefaultCodec is the codec the one-shot helpers use when no Codec option
// is given.
const DefaultCodec = "sz:abs"

// DefaultTolerance is the default fractional acceptance tolerance around
// the target ratio (the paper's ε).
const DefaultTolerance = 0.1

// settings is the resolved option set a Client is built from.
type settings struct {
	codec      string
	objective  core.Objective // zero Name = no tuning target configured
	tolerance  float64
	maxError   float64
	regions    int
	blocks     int
	workers    int
	seed       int64
	fixedBound float64
	reuse      bool
	cache      *EvalCache // nil = private per-client cache
}

// resolve applies opts, in order, over the default settings for the named
// codec; a Codec option overrides the name.
func resolve(codec string, opts []Option) (settings, error) {
	set := settings{codec: codec, reuse: true}
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return set, err
		}
	}
	return set, nil
}

// Option configures a Client (or a one-shot Compress/Decompress call).
// Options validate eagerly: an out-of-range value fails at New, not at the
// first Compress.
type Option func(*settings) error

// Codec selects the compressor by registry name, e.g. "sz:abs" or
// "zfp:accuracy"; Codecs lists the choices. It overrides the name given to
// New, and is how the one-shot Compress helper picks a codec (default
// DefaultCodec). Decompression ignores it: the codec always comes from the
// stream header.
func Codec(name string) Option {
	return func(s *settings) error {
		if name == "" {
			return fmt.Errorf("fraz: Codec requires a non-empty name")
		}
		s.codec = name
		return nil
	}
}

// Target sets the tuning objective: what quantity Compress and Tune drive
// the codec's parameter toward. Build one with FixedRatio, FixedPSNR,
// FixedSSIM, or FixedMaxError:
//
//	c, err := fraz.New("sz:abs", fraz.Target(fraz.FixedPSNR(60)))
//
// Ratio, TargetPSNR, TargetSSIM, and TargetMaxError are sugar for the four
// built-ins. Options are applied in order, so a later Target (or sugar)
// replaces an earlier one. Required (directly or via the sugar) for
// Compress and Tune unless FixedBound is used.
func Target(obj Objective) Option {
	return func(s *settings) error {
		if obj.err != nil {
			return obj.err
		}
		if obj.obj.Name == "" {
			return fmt.Errorf("fraz: Target requires an objective built by FixedRatio, FixedPSNR, FixedSSIM, or FixedMaxError")
		}
		s.objective = obj.obj
		return nil
	}
}

// Ratio sets the target compression ratio ρt the tuner drives the codec to:
// sugar for Target(FixedRatio(target)). Must be > 1.
func Ratio(target float64) Option {
	return Target(FixedRatio(target))
}

// TargetPSNR tunes to a reconstruction PSNR of db decibels: sugar for
// Target(FixedPSNR(db)).
func TargetPSNR(db float64) Option {
	return Target(FixedPSNR(db))
}

// TargetSSIM tunes to a mid-slice structural similarity of s: sugar for
// Target(FixedSSIM(s)).
func TargetSSIM(s float64) Option {
	return Target(FixedSSIM(s))
}

// TargetMaxError tunes to a measured maximum pointwise error of u: sugar
// for Target(FixedMaxError(u)).
func TargetMaxError(u float64) Option {
	return Target(FixedMaxError(u))
}

// Tolerance sets the acceptance half-width around the objective's target:
// fractional for ratio and PSNR targets (an achieved value in
// [target·(1−ε), target·(1+ε)] is feasible), absolute for SSIM and
// max-error targets (target±ε). Must be in [0, 1); zero selects the
// objective's default. For absolute bands wider than 1, set the tolerance
// on the objective itself with Objective.WithTolerance.
func Tolerance(eps float64) Option {
	return func(s *settings) error {
		if eps < 0 || eps >= 1 || math.IsNaN(eps) {
			return fmt.Errorf("fraz: Tolerance must be in [0,1), got %v", eps)
		}
		s.tolerance = eps
		return nil
	}
}

// MaxError sets U, the largest pointwise error, in the data's own units,
// the search may spend — the paper's cap on how much fidelity a fixed-ratio
// request is allowed to give up. Zero (the default) admits errors up to the
// data's value range. What it caps depends on the unit of the codec's
// parameter: an absolute bound or tolerance (sz:abs, szx:abs, zfp:accuracy,
// mgard:abs) at u itself, sz:rel's fraction of the range at u/range,
// mgard:l2's mean squared error at u². The bit-count parameters of zfp:rate,
// zfp:precision and frsz:rate bound no error, so combining MaxError with one
// of them is rejected when the client is built.
func MaxError(u float64) Option {
	return func(s *settings) error {
		if u < 0 || math.IsNaN(u) {
			return fmt.Errorf("fraz: MaxError must be >= 0, got %v", u)
		}
		s.maxError = u
		return nil
	}
}

// Blocks sets the number of slowest-axis blocks Compress splits the field
// into: the bound is tuned once on a sampled block and all blocks compress
// concurrently into a blocked (v2) container, whose ratio is checked and,
// when it misses the band, corrected by re-tuning the sample (at most twice)
// before Compress reports ErrInfeasible. 1 forces a monolithic (v1)
// container; 0 (the default) picks a block count matched to the worker
// count and shape. Quality objectives (TargetPSNR/TargetSSIM/
// TargetMaxError) always seal monolithically regardless of this option:
// their metrics are global statistics of the whole field, and splitting the
// payload would change the reconstruction the recorded promise was
// measured on.
func Blocks(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("fraz: Blocks must be >= 0, got %d", n)
		}
		s.blocks = n
		return nil
	}
}

// Workers bounds the goroutines used for region-parallel tuning and for
// block-parallel compression and decompression. Zero (the default) uses
// GOMAXPROCS. It buys time, never a different answer: the tuned bound and
// CompressResult.Evaluations are what one worker would have found. A tune
// uses more than one only when the region search runs — the model-first
// probes that settle most ratio, PSNR and max-error targets are sequential.
// The default Blocks count does follow it; pin Blocks for archives that must
// be byte-identical across machines.
func Workers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("fraz: Workers must be >= 0, got %d", n)
		}
		s.workers = n
		return nil
	}
}

// Regions sets K, the number of overlapping regions the error-bound range is
// split into. They are searched lowest first, Workers at a time, and the
// lowest one that finds an in-band bound decides. Zero (the default) uses the
// tuner's default (12). It matters only when the region search runs: always
// for SSIM and bit-count codecs, otherwise as the fallback of the model-first
// search.
func Regions(k int) Option {
	return func(s *settings) error {
		if k < 0 {
			return fmt.Errorf("fraz: Regions must be >= 0, got %d", k)
		}
		s.regions = k
		return nil
	}
}

// Seed fixes the region search's random seed, making tuning deterministic
// for a given input and configuration. A run the model-first search settles
// reads no seed and gives the same answer at every one.
func Seed(seed int64) Option {
	return func(s *settings) error {
		s.seed = seed
		return nil
	}
}

// FixedBound skips tuning entirely and compresses at the given value of the
// codec's own parameter, in that parameter's unit (CodecInfo.BoundName): an
// absolute error for sz:abs, szx:abs, zfp:accuracy and mgard:abs, a fraction
// of the value range in (0, 1] for sz:rel, a mean squared error for
// mgard:l2, bits per value for zfp:rate and frsz:rate, bit planes for
// zfp:precision (the last two take whole numbers: the value is rounded, and
// CompressResult.ErrorBound reports the rounded one). flate:lossless ignores
// it. It is the escape hatch for codec-native workflows (e.g. a fixed-rate
// baseline) and for re-sealing at a bound found earlier.
func FixedBound(bound float64) Option {
	return func(s *settings) error {
		if !(bound > 0) || math.IsInf(bound, 0) {
			return fmt.Errorf("fraz: FixedBound must be > 0, got %v", bound)
		}
		s.fixedBound = bound
		return nil
	}
}

// SharedCache makes the client record its tuning evaluations in the given
// cache instead of a private one, pooling evaluations with every other
// client sharing it: a request re-tuning a field any sharing client has seen
// — same codec, same data, near-identical bound — is answered from memory
// instead of re-running the compressor. This is the cross-request cache tier
// a long-running service wants; a single pipeline re-tuning its own fields
// is already served by the client's private default. The cache must come
// from NewEvalCache.
func SharedCache(cache *EvalCache) Option {
	return func(s *settings) error {
		if cache == nil || cache.c == nil {
			return fmt.Errorf("fraz: SharedCache requires a cache built by NewEvalCache")
		}
		s.cache = cache
		return nil
	}
}

// ReuseBounds controls whether a Client carries the last feasible error
// bound from one Compress/Tune call into the next as the starting
// prediction (the paper's time-step reuse, Algorithm 3). The prediction is
// only kept when it lands inside the acceptance band on the new data, so
// correctness never depends on it. Enabled by default.
func ReuseBounds(enable bool) Option {
	return func(s *settings) error {
		s.reuse = enable
		return nil
	}
}
