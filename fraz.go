package fraz

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"fraz/internal/container"
	"fraz/internal/core"
	"fraz/internal/grid"
	"fraz/internal/pressio"
)

// Client is the configured entry point to the framework: one codec (or the
// CodecAuto policy), one tuning objective (a fixed ratio, PSNR, SSIM, or
// max-error target), and the tuning/parallelism knobs set through
// functional options. A Client is safe for concurrent use; it shares one
// evaluation cache across all of its tuning runs, and (unless disabled with
// ReuseBounds) carries the last feasible error bound from one call into the
// next as the starting prediction, the paper's time-step reuse.
type Client struct {
	set  settings
	info CodecInfo
	// cache records every candidate's evaluations: the SharedCache, or a
	// private one.
	cache *pressio.Cache
	// cands are the codecs a call may compress with, in Codecs() order: the
	// named codec, or every registered codec for CodecAuto (auto.go).
	cands []*candidate
}

// candidate is one codec a Client can compress with, built once by New.
type candidate struct {
	info  CodecInfo
	comp  pressio.Compressor
	tuner *core.Tuner // nil without a tuning target, or with a skip
	// skip is why CodecAuto never races the codec, whatever the field: it is
	// lossless, it promises no fidelity under a ratio target, or NewTuner
	// refused the options for it.
	skip string

	mu        sync.Mutex
	lastBound float64 // the next call's prediction: the last bound a call settled on
}

// New builds a Client for the named codec (see Codecs for the registry).
// Options that take values validate eagerly, so a misconfigured client
// fails here rather than on first use:
//
//	c, err := fraz.New("sz:abs",
//		fraz.Ratio(12), fraz.Tolerance(0.05),
//		fraz.MaxError(1e-2), fraz.Blocks(8), fraz.Workers(4))
//
// Quality targets go through the same constructor:
//
//	c, err := fraz.New("sz:abs", fraz.TargetPSNR(60))
//	c, err := fraz.New("zfp:accuracy", fraz.TargetSSIM(0.95))
//
// Compress and Tune additionally require a target — Ratio, TargetPSNR,
// TargetSSIM, TargetMaxError, or Target (or FixedBound to skip tuning);
// plain Decompress needs none.
//
// New resolves the client's candidates: one for a named codec, one per
// registered codec for CodecAuto, whose static skip reasons are decided
// here (the rank and element-width windows depend on the field, so race
// checks them per call).
func New(codec string, opts ...Option) (*Client, error) {
	set, err := resolve(codec, opts)
	if err != nil {
		return nil, err
	}
	c := &Client{set: set, cache: pressio.NewCache()}
	if set.cache != nil {
		c.cache = set.cache.c
	}
	if set.codec != CodecAuto {
		d, ok := pressio.Lookup(set.codec)
		if !ok {
			return nil, fmt.Errorf("%w: %q (available: %v)", ErrUnknownCodec, set.codec, pressio.Names())
		}
		cd, err := c.newCandidate(d)
		if err != nil {
			return nil, err
		}
		c.info, c.cands = cd.info, []*candidate{cd}
		return c, nil
	}
	if set.fixedBound > 0 {
		return nil, fmt.Errorf("fraz: FixedBound cannot combine with %s: an explicit bound has different semantics for every codec", CodecAuto)
	}
	c.info = CodecInfo{Name: CodecAuto, BoundName: "auto-selected per field"}
	for _, d := range pressio.Codecs() {
		info := codecInfo(d)
		cd := &candidate{info: info}
		switch {
		case info.Lossless:
			cd.skip = "lossless: no tunable fidelity/size trade to search"
		case !info.ErrorBounded && !set.objective.Quality && !info.FixedRate:
			// A fixed-rate codec is exempt: it hits the target ratio by
			// construction at zero tuning cost, and the race still scores it
			// on measured reconstruction quality, so admitting it costs one
			// cached round trip and can only improve the scoreboard.
			cd.skip = "not error-bounded: a fixed-ratio archive with it would carry no fidelity promise"
		default:
			var err error
			if cd, err = c.newCandidate(d); err != nil {
				cd.skip = err.Error()
			}
		}
		c.cands = append(c.cands, cd)
	}
	return c, nil
}

// newCandidate builds the codec's candidate and, when the client has a
// tuning target, its tuner on the client's cache; the error is NewTuner's
// refusal, and the candidate is then left without a tuner.
func (c *Client) newCandidate(d *pressio.Codec) (*candidate, error) {
	cd := &candidate{info: codecInfo(d), comp: d}
	if c.set.objective.Name == "" {
		return cd, nil
	}
	obj := c.set.objective
	if c.set.tolerance > 0 {
		obj.Tolerance = c.set.tolerance
	}
	tuner, err := core.NewTuner(d, core.Config{
		Objective: obj,
		MaxError:  c.set.maxError,
		Regions:   c.set.regions,
		Workers:   c.set.workers,
		Seed:      c.set.seed,
		Cache:     c.cache,
	})
	cd.tuner = tuner
	return cd, err
}

// errNoTarget is what every call that tunes returns on a client built
// without a tuning target.
func errNoTarget(op string) error {
	return fmt.Errorf("fraz: %s requires a tuning target: pass fraz.Ratio, fraz.TargetPSNR, fraz.TargetSSIM, fraz.TargetMaxError, or fraz.Target to New", op)
}

// Codec returns the descriptor of the codec this client compresses with (a
// CodecAuto client's names the policy).
func (c *Client) Codec() CodecInfo { return c.info }

// Element constrains the element types the framework compresses: IEEE-754
// single and double precision. The generic entry points (Compress,
// CompressT, TuneT, DecompressAs) accept either; the element width travels
// in the .fraz container header, so decompression recovers it without any
// out-of-band knowledge.
type Element interface {
	float32 | float64
}

// newBuffer validates a (data, shape) pair against the public contract:
// shape is slowest-dimension-first with 1–4 positive extents whose product
// is len(data).
func newBuffer[T Element](data []T, shape []int) (pressio.Buffer, error) {
	dims, err := grid.NewDims(shape...)
	if err != nil {
		return pressio.Buffer{}, fmt.Errorf("fraz: invalid shape %v: %w", shape, err)
	}
	buf, err := pressio.NewBufferOf(data, dims)
	if err != nil {
		return pressio.Buffer{}, fmt.Errorf("fraz: %d values do not fill shape %v", len(data), shape)
	}
	return buf, nil
}

// CompressResult reports what one Compress call did.
type CompressResult struct {
	// Codec is the codec name recorded in the container header.
	Codec string
	// Objective names the tuning objective the bound was searched for
	// ("ratio", "psnr", "ssim", "max-error"), Target its requested value,
	// and AchievedValue the whole-field value actually achieved (recorded
	// in the container header; equal to Ratio for the ratio objective).
	Objective     string
	Target        float64
	AchievedValue float64
	// ErrorBound is the codec parameter the field was sealed at.
	ErrorBound float64
	// Ratio is the achieved whole-field compression ratio (uncompressed
	// bytes over payload bytes), as recorded in the container header.
	Ratio float64
	// SampleRatio is the ratio the last tune achieved on the block the bound
	// was tuned on (equal to Ratio for a monolithic seal; zero with
	// FixedBound). It is not judged: Ratio is.
	SampleRatio float64
	// Blocks is the number of independently decodable blocks written: 1
	// means a monolithic (v1) container, more a blocked (v2) one.
	Blocks int
	// SampleBlock is the index of the block the bound was tuned on.
	SampleBlock int
	// BytesWritten is the size of the container streamed to the writer.
	BytesWritten int64
	// Evaluations counts the evaluations the seal's tunes asked for — the
	// first, and every corrective one after a blocked ratio archive missed
	// the band (a CodecAuto race's own are in Selection) — and CacheHits
	// those of them the client's evaluation cache answered.
	Evaluations int
	CacheHits   int
	// Direct is true when the objective was satisfied directly from codec
	// capability — a fixed-rate codec's size formula inverted into its
	// bits-per-value parameter — so tuning ran zero compressor evaluations
	// and ErrorBound holds the whole-bit rate.
	Direct bool
	// UsedPrediction is true when a previous call's bound was reused
	// without retraining.
	UsedPrediction bool
	// Elapsed is the tuning wall-clock time (excluding the final seal).
	Elapsed time.Duration
	// Selection reports the codec race a CodecAuto client ran before this
	// compression: the winner (equal to Codec) and every candidate's
	// outcome. Nil when the client names a fixed codec.
	Selection *AutoSelection
}

// Compress tunes the codec's error bound to the client's objective — the
// target ratio, or a quality target (PSNR, SSIM, max-error) — compresses
// the field at the tuned bound, and streams a self-describing .fraz
// container to w. The promise is the archive's: its own ratio (or quality)
// lies in the acceptance band, or nothing is written and Compress fails with
// an error matching errors.Is(err, ErrInfeasible) whose *InfeasibleError
// payload carries the closest configuration observed.
//
// data is a flat row-major field and shape its extents, slowest dimension
// first (e.g. {100, 500, 500}). With Blocks(n > 1 or the automatic
// default), a ratio-targeted bound is tuned on one sampled block and all
// blocks are compressed concurrently into a blocked container, whose ratio
// is then checked: an archive that misses the band is corrected by re-tuning
// the sample for a target rescaled by sample ratio ÷ archive ratio, at most
// twice, and the closest archive is reported if none lands. Blocks(1) seals
// monolithically, as do quality objectives always (see Blocks).
// Quality-targeted archives additionally record the objective name, target,
// band, and achieved value in the container header.
func (c *Client) Compress(ctx context.Context, w io.Writer, data []float32, shape []int) (*CompressResult, error) {
	return CompressT(ctx, c, w, data, shape)
}

// Compress64 is Compress for double-precision fields. The container records
// dtype float64, so Decompress64 (or DecompressFull) recovers the data at
// full precision.
func (c *Client) Compress64(ctx context.Context, w io.Writer, data []float64, shape []int) (*CompressResult, error) {
	return CompressT(ctx, c, w, data, shape)
}

// CompressT is the dtype-generic form of Client.Compress: one type
// parameter selects single or double precision, and everything below it —
// tuner, codecs, container — reads the width off the buffer's dtype tag.
// (Go methods cannot take type parameters, so the generic entry point is a
// package function over the client.)
func CompressT[T Element](ctx context.Context, c *Client, w io.Writer, data []T, shape []int) (*CompressResult, error) {
	buf, err := newBuffer(data, shape)
	if err != nil {
		return nil, err
	}
	return c.compressBuffer(ctx, w, buf)
}

// compressBuffer is the dtype-agnostic core of Compress/Compress64.
func (c *Client) compressBuffer(ctx context.Context, w io.Writer, buf pressio.Buffer) (*CompressResult, error) {
	cn, sr, sel, err := c.seal(ctx, buf)
	if err != nil {
		return nil, err
	}
	n, err := cn.WriteTo(w)
	if err != nil {
		return nil, fmt.Errorf("fraz: writing container: %w", err)
	}
	achieved := cn.Header.Objective.Achieved // zero at a FixedBound
	if sr.Tuning.Objective == "ratio" {
		achieved = cn.Header.Ratio
	}
	return &CompressResult{
		Codec:          cn.Header.Codec,
		Objective:      sr.Tuning.Objective,
		Target:         sr.Tuning.Target,
		AchievedValue:  achieved,
		ErrorBound:     cn.Header.Bound,
		Ratio:          cn.Header.Ratio,
		SampleRatio:    sr.Tuning.AchievedRatio,
		Blocks:         len(cn.Blocks),
		SampleBlock:    sr.SampleBlock,
		BytesWritten:   n,
		Evaluations:    sr.Tuning.Iterations,
		CacheHits:      sr.Tuning.CacheHits,
		Direct:         sr.Tuning.Direct,
		UsedPrediction: sr.Tuning.UsedPrediction,
		Elapsed:        sr.Tuning.Elapsed,
		Selection:      sel,
	}, nil
}

// seal builds the container for one field: at the explicit FixedBound
// parameter when there is one, skipping the tuner entirely (the zero
// SealResult says that nothing was tuned; New refuses FixedBound with
// CodecAuto), else at the bound the first ranked candidate to reach the band
// tunes. An attempt that misses the band returns no container, so a walk
// that moves on has nothing to undo.
func (c *Client) seal(ctx context.Context, buf pressio.Buffer) (container.Container, core.SealResult, *AutoSelection, error) {
	if c.set.fixedBound > 0 {
		layout, err := core.PlanBlocks(buf, c.set.blocks, c.set.workers)
		if err != nil {
			return container.Container{}, core.SealResult{}, nil, fmt.Errorf("fraz: seal at a fixed bound: %w", err)
		}
		cn, err := pressio.SealBlocked(ctx, c.cands[0].comp, buf, c.set.fixedBound, layout.Blocks, layout.Workers)
		return cn, core.SealResult{}, nil, err
	}
	ranking, sel, _, err := c.rank(ctx, buf, "Compress")
	if err != nil {
		return container.Container{}, core.SealResult{}, nil, err
	}
	var cn container.Container
	var sr core.SealResult
	err = c.walk(ranking, sel, func(r ranked) (float64, error) {
		var err error
		cn, sr, err = r.cd.tuner.SealBlocked(ctx, buf, core.SealOptions{Blocks: c.set.blocks, Prediction: r.prediction})
		return sr.Tuning.ErrorBound, wrapStreamErr(err)
	})
	return cn, sr, sel, err
}

// prediction is the bound cd's next tune starts from: its last feasible
// one, or none under ReuseBounds(false).
func (c *Client) prediction(cd *candidate) float64 {
	if !c.set.reuse {
		return 0
	}
	cd.mu.Lock()
	defer cd.mu.Unlock()
	return cd.lastBound
}

func (c *Client) recordBound(cd *candidate, bound float64) {
	if !c.set.reuse {
		return
	}
	cd.mu.Lock()
	cd.lastBound = bound
	cd.mu.Unlock()
}

// ObjectiveRecord echoes the objective extension of a container header: the
// tuning objective an archive was sealed for, its target, the absolute
// half-width of the acceptance band, and the value the archive's bound
// actually achieved. Rebuild the objective with ObjectiveByName to
// re-measure the promise against a reference field.
type ObjectiveRecord struct {
	Name      string
	Target    float64
	Tolerance float64
	Achieved  float64
}

// InBand reports whether a value lies inside the recorded acceptance band
// [Target−Tolerance, Target+Tolerance].
func (o ObjectiveRecord) InBand(v float64) bool {
	return v >= o.Target-o.Tolerance && v <= o.Target+o.Tolerance
}

// DecompressResult couples the reconstructed field with the container
// metadata it was decoded from.
type DecompressResult struct {
	// Data is the reconstructed field, flat in row-major order, for a
	// single-precision archive; nil when the archive holds float64 data
	// (then Data64 is set — exactly one of the two is non-nil).
	Data []float32
	// Data64 is the reconstructed field of a double-precision archive.
	Data64 []float64
	// DType names the archived element type: "float32" or "float64".
	DType string
	// Shape is the field's extents, slowest dimension first.
	Shape []int
	// Codec, ErrorBound, and Ratio echo the container header: the codec the
	// payload was compressed with, the bound it was sealed at, and the
	// ratio it achieved.
	Codec      string
	ErrorBound float64
	Ratio      float64
	// Objective is the archive's recorded tuning promise, nil when the
	// archive predates the extension or was sealed for a plain ratio
	// target (whose promise lives in Ratio).
	Objective *ObjectiveRecord
	// CompressedBytes is the size of the compressed payload (the container's
	// payload area, excluding header and index overhead) — the denominator
	// of the recorded ratio.
	CompressedBytes int
	// Version is the container format version (1 monolithic, 2 blocked).
	Version int
	// Blocks is the number of independently verified and decoded blocks.
	Blocks int
}

// Decompress reads one .fraz container from r and reconstructs the field.
// Everything needed — codec, bound, shape, element type — comes from the
// stream's own header; the client's codec plays no part. Streams that are
// not valid containers fail with ErrCorrupt; headers naming an unregistered
// codec fail with ErrUnknownCodec. Double-precision archives fail here with
// a typed-width error — use Decompress64 (or DecompressFull, which carries
// either width) for those.
func (c *Client) Decompress(ctx context.Context, r io.Reader) ([]float32, []int, error) {
	res, err := c.DecompressFull(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	if res.Data == nil {
		return nil, nil, fmt.Errorf("fraz: archive holds %s data; use Decompress64 or DecompressFull", res.DType)
	}
	return res.Data, res.Shape, nil
}

// Decompress64 is Decompress for double-precision archives; it fails with a
// typed-width error on float32 archives so precision is never silently
// widened.
func (c *Client) Decompress64(ctx context.Context, r io.Reader) ([]float64, []int, error) {
	res, err := c.DecompressFull(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	if res.Data64 == nil {
		return nil, nil, fmt.Errorf("fraz: archive holds %s data; use Decompress or DecompressFull", res.DType)
	}
	return res.Data64, res.Shape, nil
}

// DecompressFull is Decompress plus the container metadata: the codec the
// stream was sealed with, the tuned bound (an error guarantee when the
// codec is error-bounded), the achieved ratio, and the block layout.
func (c *Client) DecompressFull(ctx context.Context, r io.Reader) (*DecompressResult, error) {
	return decompress(ctx, r, c.set.workers)
}

func decompress(ctx context.Context, r io.Reader, workers int) (*DecompressResult, error) {
	var cn container.Container
	if _, err := cn.ReadFrom(r); err != nil {
		return nil, wrapStreamErr(err)
	}
	return decompressContainer(ctx, cn, workers)
}

// decompressContainer turns one decoded container into a DecompressResult —
// the tail of the Decompress path, shared with Dataset field reads (whose
// containers come out of an archive directory rather than a stream).
func decompressContainer(ctx context.Context, cn container.Container, workers int) (*DecompressResult, error) {
	buf, err := pressio.OpenBlocked(ctx, cn, workers)
	if err != nil {
		return nil, wrapStreamErr(err)
	}
	res := &DecompressResult{
		Data:            buf.Float32(),
		Data64:          buf.Float64(),
		DType:           buf.DType().String(),
		Shape:           []int(buf.Shape),
		Codec:           cn.Header.Codec,
		ErrorBound:      cn.Header.Bound,
		Ratio:           cn.Header.Ratio,
		CompressedBytes: len(cn.Payload),
		Version:         int(cn.Header.Version),
		Blocks:          len(cn.Blocks),
	}
	if o := cn.Header.Objective; o.Name != "" {
		res.Objective = &ObjectiveRecord{
			Name:      o.Name,
			Target:    o.Target,
			Tolerance: o.Tolerance,
			Achieved:  o.Achieved,
		}
	}
	return res, nil
}

// TuneResult is the outcome of tuning one field without sealing it.
type TuneResult struct {
	// Codec is the tuned codec's name.
	Codec string
	// Objective names the tuning objective, Target its requested value, and
	// AchievedValue the value reached at ErrorBound (equal to Ratio for the
	// ratio objective).
	Objective     string
	Target        float64
	AchievedValue float64
	// ErrorBound is the recommended codec parameter.
	ErrorBound float64
	// Ratio is the compression ratio achieved at ErrorBound, whatever the
	// objective.
	Ratio float64
	// CompressedSize is the compressed size in bytes at ErrorBound.
	CompressedSize int
	// Feasible reports whether AchievedValue lies inside the acceptance
	// band. An infeasible result still describes the closest observed
	// configuration; Err turns it into an ErrInfeasible error.
	Feasible bool
	// UsedPrediction is true when a previous call's bound was reused
	// without retraining.
	UsedPrediction bool
	// Evaluations counts compressor invocations; CacheHits of them were
	// served from the client's evaluation cache.
	Evaluations int
	CacheHits   int
	// Direct is true when the objective was satisfied directly from codec
	// capability with zero evaluations (see CompressResult.Direct).
	Direct bool
	// Elapsed is the tuning wall-clock time.
	Elapsed time.Duration
	// Selection reports the codec race a CodecAuto client ran before this
	// tune. Nil when the client names a fixed codec.
	Selection *AutoSelection

	// infeasible is the core result's Check() outcome, what Err returns.
	infeasible error
}

// Err returns nil for a feasible result and an error matching
// errors.Is(err, ErrInfeasible) — with the closest observed configuration
// in its *InfeasibleError — otherwise.
func (r *TuneResult) Err() error { return r.infeasible }

func tuneResult(res core.Result) *TuneResult {
	return &TuneResult{
		Codec:          res.Compressor,
		Objective:      res.Objective,
		Target:         res.Target,
		AchievedValue:  res.AchievedValue,
		ErrorBound:     res.ErrorBound,
		Ratio:          res.AchievedRatio,
		CompressedSize: res.CompressedSize,
		Feasible:       res.Feasible,
		UsedPrediction: res.UsedPrediction,
		Evaluations:    res.Iterations,
		CacheHits:      res.CacheHits,
		Direct:         res.Direct,
		Elapsed:        res.Elapsed,
		infeasible:     res.Check(),
	}
}

// Tune searches the codec's error-bound range for the client's target ratio
// without compressing a container: the fixed-ratio search alone, for
// callers that apply the bound through their own pipeline. Unlike Compress,
// an infeasible outcome is returned as data — Feasible false, with the
// closest observed configuration — because a caller inspecting a search
// result can act on "how close did it get"; use TuneResult.Err (or
// Compress) where only an in-band result is acceptable. On a CodecAuto
// client the result is the first ranked candidate's tune to reach the band,
// or the last one's miss; when every candidate misses the band on the race's
// sampled block, it is the race's miss nearest the target, and Err is the
// error Compress fails with. Selection is set either way.
func (c *Client) Tune(ctx context.Context, data []float32, shape []int) (*TuneResult, error) {
	return TuneT(ctx, c, data, shape)
}

// Tune64 is Tune for double-precision fields.
func (c *Client) Tune64(ctx context.Context, data []float64, shape []int) (*TuneResult, error) {
	return TuneT(ctx, c, data, shape)
}

// TuneT is the dtype-generic form of Client.Tune, mirroring CompressT.
func TuneT[T Element](ctx context.Context, c *Client, data []T, shape []int) (*TuneResult, error) {
	buf, err := newBuffer(data, shape)
	if err != nil {
		return nil, err
	}
	return c.tuneBuffer(ctx, buf)
}

// tuneBuffer is the dtype-agnostic core of Tune.
func (c *Client) tuneBuffer(ctx context.Context, buf pressio.Buffer) (*TuneResult, error) {
	// A CodecAuto race that every candidate missed ranks none and hands back
	// the nearest miss.
	ranking, sel, tr, err := c.rank(ctx, buf, "Tune")
	if err != nil && tr == nil {
		return nil, err
	}
	err = c.walk(ranking, sel, func(r ranked) (float64, error) {
		res, err := r.cd.tuner.TuneWithPrediction(ctx, buf, r.prediction)
		if err != nil {
			return 0, wrapStreamErr(err)
		}
		tr = tuneResult(res)
		return res.ErrorBound, tr.Err()
	})
	// A miss is returned as data, like any infeasible tune: the last
	// candidate's, when the ranking runs out.
	if err != nil && !errors.Is(err, ErrInfeasible) {
		return nil, err
	}
	tr.Selection = sel
	return tr, nil
}

// Series describes one field's time series through a lazy provider, so a
// whole dataset never needs to be resident at once. At is called with step
// indices 0..Steps-1 and returns the field's data and shape at that step.
type Series struct {
	// Name labels the series in results, e.g. "Hurricane/CLOUDf".
	Name string
	// Steps is the number of time-steps.
	Steps int
	// At returns the field at time-step i.
	At func(i int) (data []float32, shape []int, err error)
}

// SeriesResult aggregates the tuning of one field across its time-steps.
type SeriesResult struct {
	// Name echoes the series label.
	Name string
	// Steps holds one result per time-step, in order.
	Steps []TuneResult
	// Retrains counts the steps that required a full search because the
	// previous step's bound missed the band (the first step always does).
	Retrains int
	// ConvergedSteps counts steps whose final ratio landed in the band.
	ConvergedSteps int
	// Evaluations totals the compressor invocations across all steps;
	// CacheHits of them were served from the client's evaluation cache.
	Evaluations int
	CacheHits   int
	// Elapsed is the total wall-clock tuning time.
	Elapsed time.Duration
}

// TuneSeries tunes every time-step of one field, reusing each step's bound
// as the next step's prediction and retraining only when the data drifts
// out of the acceptance band (the paper's Algorithm 3, inner loop).
func (c *Client) TuneSeries(ctx context.Context, s Series) (*SeriesResult, error) {
	tuner, err := c.seriesTuner("TuneSeries")
	if err != nil {
		return nil, err
	}
	res, err := tuner.TuneSeries(ctx, coreSeries(s))
	if err != nil {
		return nil, err
	}
	return seriesResult(res), nil
}

// TuneFields tunes several field series concurrently, bounded by Workers
// (the paper's Algorithm 3, outer loop). Results are positional: result i
// belongs to series[i].
func (c *Client) TuneFields(ctx context.Context, series []Series) ([]*SeriesResult, error) {
	tuner, err := c.seriesTuner("TuneFields")
	if err != nil {
		return nil, err
	}
	cs := make([]core.Series, len(series))
	for i, s := range series {
		cs[i] = coreSeries(s)
	}
	res, err := tuner.TuneFields(ctx, cs)
	out := make([]*SeriesResult, len(res))
	for i := range res {
		out[i] = seriesResult(res[i])
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// seriesTuner is the tuner TuneSeries and TuneFields drive: a named codec's.
// A series carries one bound from step to step, and CodecAuto picks a codec
// per field.
func (c *Client) seriesTuner(op string) (*core.Tuner, error) {
	if len(c.cands) > 1 {
		return nil, fmt.Errorf("fraz: %s does not support %s — codec selection is per-field (tune fields individually, or build a Dataset with AppendStep)", op, CodecAuto)
	}
	if c.cands[0].tuner == nil {
		return nil, errNoTarget(op)
	}
	return c.cands[0].tuner, nil
}

func coreSeries(s Series) core.Series {
	return core.Series{
		Field: s.Name,
		Steps: s.Steps,
		At: func(i int) (pressio.Buffer, error) {
			data, shape, err := s.At(i)
			if err != nil {
				return pressio.Buffer{}, err
			}
			return newBuffer(data, shape)
		},
	}
}

func seriesResult(res core.SeriesResult) *SeriesResult {
	out := &SeriesResult{
		Name:           res.Field,
		Retrains:       res.Retrains,
		ConvergedSteps: res.ConvergedSteps,
		Evaluations:    res.TotalIterations,
		CacheHits:      res.CacheHits,
		Elapsed:        res.Elapsed,
	}
	out.Steps = make([]TuneResult, len(res.Steps))
	for i, st := range res.Steps {
		out.Steps[i] = *tuneResult(st.Result)
	}
	return out
}

// Compress is the one-shot form of Client.Compress: it builds a throwaway
// client from the options (Codec selects the compressor, default
// DefaultCodec) and streams one tuned .fraz container to w. It is generic
// over the element type — pass a []float32 or []float64 field and the
// container records the width:
//
//	_, err := fraz.Compress(ctx, f, data, []int{100, 500, 500},
//		fraz.Ratio(10), fraz.Codec("zfp:accuracy"))
func Compress[T Element](ctx context.Context, w io.Writer, data []T, shape []int, opts ...Option) (*CompressResult, error) {
	c, err := New(DefaultCodec, opts...)
	if err != nil {
		return nil, err
	}
	return CompressT(ctx, c, w, data, shape)
}

// Decompress is the one-shot inverse for single-precision archives: it
// reads one .fraz container from r and reconstructs the field and its
// shape. No options are needed — the stream header carries the codec,
// bound, shape, and element type. Double-precision archives fail with a
// typed-width error; use DecompressAs[float64] or DecompressFull.
func Decompress(ctx context.Context, r io.Reader) ([]float32, []int, error) {
	return DecompressAs[float32](ctx, r)
}

// DecompressAs is the dtype-explicit one-shot inverse: the archive's
// recorded element type must match T, so precision is never silently
// narrowed or widened.
func DecompressAs[T Element](ctx context.Context, r io.Reader) ([]T, []int, error) {
	res, err := decompress(ctx, r, 0)
	if err != nil {
		return nil, nil, err
	}
	var want T
	if _, ok := any(want).(float32); ok {
		if res.Data == nil {
			return nil, nil, fmt.Errorf("fraz: archive holds %s data; use DecompressAs[float64] or DecompressFull", res.DType)
		}
		return any(res.Data).([]T), res.Shape, nil
	}
	if res.Data64 == nil {
		return nil, nil, fmt.Errorf("fraz: archive holds %s data; use DecompressAs[float32] or DecompressFull", res.DType)
	}
	return any(res.Data64).([]T), res.Shape, nil
}

// DecompressFull is the one-shot form of Client.DecompressFull, returning
// the container metadata alongside the reconstructed field. Options other
// than Workers are ignored.
func DecompressFull(ctx context.Context, r io.Reader, opts ...Option) (*DecompressResult, error) {
	set, err := resolve("", opts)
	if err != nil {
		return nil, err
	}
	return decompress(ctx, r, set.workers)
}
