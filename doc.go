// Package fraz is a pure-Go implementation of "FRaZ: A Generic
// High-Fidelity Fixed-Ratio Lossy Compression Framework for Scientific
// Floating-point Data" (Underwood, Di, Calhoun, Cappello — IPDPS 2020).
//
// Scientific users usually know how much storage or bandwidth they have — a
// fixed compression ratio — but error-bounded lossy compressors (SZ, ZFP,
// MGARD) are parameterised by an error bound. FRaZ closes the gap: it
// searches the bound space with a parallel global optimizer until the
// achieved ratio lands inside the requested band, for any codec behind a
// generic adapter layer. This implementation generalises the search to any
// of four objectives — fixed ratio, fixed PSNR, fixed SSIM, fixed measured
// max-error — answering the paper's future-work call for tuning to "the
// quality of a scientist's analysis result".
//
// # Usage
//
// The root package is the public API. Build a Client with functional
// options and stream self-describing .fraz containers:
//
//	c, err := fraz.New("sz:abs", fraz.Ratio(12), fraz.Tolerance(0.05))
//	if err != nil { ... }
//	res, err := c.Compress(ctx, f, data, []int{100, 500, 500})
//	if errors.Is(err, fraz.ErrInfeasible) {
//		// no bound reaches 12:1 ±5% on this data; errors.As on
//		// *fraz.InfeasibleError reports the closest observed ratio.
//	}
//
// Quality targets use the same constructor through the Objective API —
// Ratio is sugar for Target(FixedRatio(r)):
//
//	c, err := fraz.New("sz:abs", fraz.TargetPSNR(60))          // ≥ ~60 dB, as cheap as possible
//	c, err := fraz.New("zfp:accuracy", fraz.TargetSSIM(0.95))  // Baker-style visual criterion
//	c, err := fraz.New("sz:abs", fraz.Target(fraz.FixedMaxError(100).WithTolerance(5)))
//
// Ratio and PSNR bands are fractional (target·(1±ε)); SSIM and max-error
// bands are absolute (target±ε). Quality-targeted archives record the
// objective, target, band, and achieved value in the container header, and
// a holder of the original data can re-verify the promise (see
// ObjectiveByName and Objective.Measure, or `fraz -decompress x.fraz
// -verify`).
//
// One combination needs no search at all: a fixed-ratio objective with the
// truly fixed-rate codec ("frsz:rate", whose compressed size is a
// closed-form function of shape and bits-per-value) is satisfied directly —
// the tuner inverts the target ratio into a whole-bit rate and seals with
// zero compressor evaluations. CompressResult.Direct reports when this fast
// path ran; CodecInfo.FixedRate identifies the codecs that enable it.
//
// Most others need very little of it: ratio, PSNR and max-error targets on a
// codec whose parameter is an error magnitude (CodecInfo.ErrorBounded and not
// Lossless: sz:abs, sz:rel, szx:abs, zfp:accuracy, mgard:abs, mgard:l2) are
// tuned model first. PSNR and max-error follow the bound monotonically and
// have a closed form for a uniform quantiser (for PSNR, bound ≈
// range·√3·10^(−dB/20)); the ratio has the same form up to an offset that
// belongs to the data — halving the bound costs about one bit per value — so
// its first bound is a pilot whose measurement supplies the offset. The tuner
// measures the model's bound and corrects a miss with a sequential bracket —
// one to eight evaluations, CompressResult.Evaluations says how many, a few
// more where the curve has teeth (SZ's ratio curve, the paper's Fig. 3) and
// the bracket is bisected further. Only a measured in-band evaluation is ever
// sealed, and as measured: its bytes are the sampled block's payload (the
// whole archive for a monolithic seal) unless the evaluation cache answered
// it. A blocked ratio archive is then judged on its own ratio, since blocks
// need not compress like the sample: a miss re-tunes the sample for a target
// rescaled by sample ratio ÷ archive ratio, from the bound just sealed, at
// most twice, and ErrInfeasible reports the closest archive if none lands
// (CompressResult.Evaluations counts those tunes too). Where the bracket
// finds none (a staircase curve, an unreachable
// target) the region-parallel search of the paper's Algorithm 2 runs as the
// fallback and decides, ErrInfeasible included. SSIM targets, and every
// target on zfp:rate, zfp:precision and frsz:rate, take the region-parallel
// search. Which path runs follows from the objective and the codec; there is
// nothing to configure.
//
// Whichever path runs, the answer is the one a single worker computes: the
// region search goes through its regions in order and stops after the first
// that finds an in-band bound, and Workers beyond one only search the next
// regions ahead of time. The same data, options and Seed therefore give the
// same bound, the same Evaluations count and — at a pinned Blocks count —
// the same archive bytes at any Workers setting and on any number of cores;
// where the model-first search settles the run, at any Seed as well.
//
// Decompression needs no configuration — the container header carries the
// codec, tuned bound, achieved ratio, shape, element type, and (for
// quality-targeted archives) the recorded objective:
//
//	data, shape, err := fraz.Decompress(ctx, f)
//
// # Precision
//
// Every entry point is dtype-generic over float32 and float64 (the Element
// constraint). The one-shot fraz.Compress infers the width from its
// argument; Client methods come in typed pairs (Compress/Compress64,
// Tune/Tune64, Decompress/Decompress64) with generic package-level forms
// (CompressT, TuneT, DecompressAs) for callers that are themselves generic:
//
//	_, err := fraz.Compress(ctx, f, doubles, shape, fraz.Ratio(12)) // doubles is []float64
//	data, shape, err := fraz.DecompressAs[float64](ctx, f)
//
// The element width is recorded in the container's dtype byte:
//
//	dtype  element
//	0      float32 (IEEE-754 single precision)
//	1      float64 (IEEE-754 double precision)
//
// Width is part of the contract, never coerced: decoding a float64 archive
// through a float32 accessor (or vice versa) is an error, and
// DecompressFull returns whichever of Data/Data64 the archive holds.
// Float32 archives written by earlier builds carry dtype 0 and decode
// byte-identically.
//
// One-shot helpers (fraz.Compress, fraz.Decompress) cover single fields;
// Client adds tuning without sealing (Tune, TuneSeries, TuneFields — the
// paper's time-step and field parallelism) and carries the last feasible
// bound across calls as the next search's starting prediction, for every
// objective. Codec discovery goes through fraz.Codecs, which describes each
// registered back end's capabilities (bound semantics, error-boundedness,
// supported ranks and element types — see CodecInfo.SupportsRank and
// CodecInfo.SupportsDType). Failures are errors.Is-able: ErrInfeasible,
// ErrUnsupported (a shape the codec or objective cannot serve at all),
// ErrUnknownCodec, ErrCorrupt.
//
// # Multi-field datasets
//
// Real simulation snapshots are many named fields on one grid, and no
// single codec wins on all of them. Dataset bundles them into one .frazd
// archive — each field an embedded .fraz container with its own codec,
// bound, and objective record, indexed by a CRC-guarded directory:
//
//	ds, err := fraz.NewDataset(f, fraz.TargetPSNR(60))
//	_, err = ds.AddField(ctx, "CLOUDf", cloud, shape)   // races codecs, seals with the winner
//	_, err = ds.AddField(ctx, "PRECIPf", precip, shape) // may pick a different codec
//	err = ds.Close()                                    // writes directory + footer
//
// Dataset clients default to fraz.CodecAuto. Every Compress and Tune takes
// one path: rank the client's candidate codecs, then walk the ranking best
// first, sealing (or tuning) with each until one lands in the band. A named
// codec is a ranking of one. CodecAuto ranks every registered codec by a
// race: candidates filtered by capability, each tuned on a sampled block
// through the shared evaluation cache, best ratio at the target quality (or
// best PSNR at the target ratio) first. A winner whose archive still misses
// the band after the seal's own check and correction gives way to the
// runner-up. The sealed codec is recorded per
// field; CompressResult.Selection reports the full scoreboard. Pass
// fraz.Codec to pin one codec instead, or use CodecAuto with a plain Client
// (fraz.New(fraz.CodecAuto, …)) for single fields.
//
// Time series append without rewriting: AppendStep adds field@step to an
// existing archive (AppendDataset reopens one), leaving earlier payload
// bytes untouched — only the trailing directory is rewritten at Close.
// Reading is lazy: OpenDataset parses just the directory, and
// OpenField/OpenFieldStep decodes a single field without touching its
// neighbours. Dataset errors are errors.Is-able too: ErrFieldNotFound,
// ErrDuplicateField, ErrCorrupt.
//
// # API stability
//
// The root fraz package is the supported surface: additions may happen in
// any release, but existing identifiers keep their signatures and
// semantics, and the .fraz container format stays readable across versions
// (a build decodes every format version up to its own). Everything under
// internal/ is implementation detail with no compatibility promise — the
// Go compiler enforces that outside programs cannot import it. The
// programs under cmd/ and examples/ consume only the public package and
// double as live documentation of it.
//
// # Implementation layout
//
//   - internal/core      — the FRaZ autotuner and parallel orchestrator: the
//     objective-generic search (ratio/PSNR/SSIM/max-error through one
//     region-parallel loop), the model-first search that ratio, PSNR and
//     max-error take ahead of it on error-magnitude codecs, plus the blocked sealing
//     path (tune on a sampled block, compress all blocks concurrently, check
//     the archive's ratio and correct a miss)
//   - internal/pressio   — the generic codec layer (libpressio analogue): codec
//     registry with capabilities, the shared evaluation cache (compress-only
//     and full round-trip entries, bounded with FIFO eviction), and the
//     block-parallel SealBlocked/OpenBlocked pipeline; as in libpressio the
//     caller owns the output, so OpenBlocked allocates a field once and every
//     block decodes straight into its slice of it
//   - internal/container — the self-describing .fraz on-disk container format
//     (always a block index in memory; one block is written as the v1
//     single-payload layout, more as v2, a block index + independently
//     decodable blocks), with streaming WriteTo/ReadFrom and incremental CRC
//     checks
//   - internal/archive   — the .frazd dataset super-container: many named
//     .fraz payloads (field@step) behind a CRC-guarded trailing directory,
//     append-friendly and lazily readable; see docs/format.md
//   - internal/blocks    — slowest-axis block decomposition (contiguous blocks,
//     read and written in place)
//   - internal/sz        — SZ-like prediction-based error-bounded compressor
//   - internal/szx       — SZx-style ultra-fast error-bounded compressor
//     (constant-block detection + leading-byte truncation; trades ratio for
//     several times the throughput)
//   - internal/frsz      — FRSZ-style true fixed-rate compressor (per-block
//     exponent scaling to fixed-point, exactly N bits per value); its
//     closed-form compressed size powers the tuner's zero-evaluation direct
//     path for fixed-ratio objectives
//   - internal/zfp       — ZFP-like transform compressor (accuracy + fixed-rate)
//   - internal/mgard     — MGARD-like multilevel compressor
//   - internal/grid      — shapes and blocks, float serialisation, and the
//     preamble every kernel stream opens with (width-tagged magic and shape,
//     checked once); each kernel's DecompressInto decodes into caller memory
//   - internal/pool      — size-bucketed free lists for scratch borrowed
//     inside one function; what a function returns is never pooled
//   - internal/optim     — Dlib-style global minimiser with cutoff + baselines
//   - internal/dataset   — synthetic SDRBench stand-ins (Hurricane, HACC, CESM, EXAALT, NYX)
//   - internal/metrics   — PSNR, SSIM, ACF(error), ratio/bit-rate metrics
//   - internal/experiments — regenerates every table and figure of the paper
//   - internal/analysis  — frazlint, the project's own static-analysis suite
//     (stdlib-only go/analysis analogue): poolcheck, magiccheck, dtypecheck,
//     floateq, and errdrop machine-check the borrow-and-defer rule of the
//     pool and the stream-magic, dtype-dispatch, float-comparison, and
//     error-propagation invariants;
//     run it with `go run ./cmd/frazlint ./...`
//   - internal/server    — the frazd HTTP service: tune→seal→archive over
//     HTTP with worker-pool admission control (bounded queue, per-tenant
//     limits, 429/503 + Retry-After backpressure), a server-wide evaluation
//     cache shared across requests via SharedCache, a content-addressed
//     archive store, graceful drain, and a Prometheus-style /metrics
//     surface; see docs/http-api.md for the endpoint reference
//
// Executables are under cmd/ (fraz, frazd, frazbench, datagen, frazlint) and
// runnable usage examples under examples/; see README.md for a quickstart
// and the .fraz format table. frazbench regenerates the paper's evaluation
// (one experiment per table/figure) plus ablations of the design choices
// (regions, bound reuse, evaluation cache); performance is measured by the
// repository benchmark, `bash benchmark/run.sh` (benchmark/README.md).
package fraz
